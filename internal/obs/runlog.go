package obs

import (
	"io"
	"log/slog"
)

// Structured run logging: the commands emit run lifecycle events (start,
// end, per-experiment completion, slow cells, cache summaries) through a
// *slog.Logger instead of ad-hoc prints, so a long run's stderr is
// machine-parseable key=value lines that interleave cleanly with the
// -progress line.

// NewRunLogger returns a logger writing structured text records to w at
// the given level. The commands pass stderr so stdout stays exactly the
// report/table stream the golden tests pin.
func NewRunLogger(w io.Writer, level slog.Level) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: level}))
}

// NopLogger returns a logger that discards every record without
// formatting it, so call sites can log unconditionally.
func NopLogger() *slog.Logger { return slog.New(slog.DiscardHandler) }
