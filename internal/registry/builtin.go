package registry

import (
	"repro/internal/timers"

	"fmt"
	"strings"
	"time"
)

// Builtin resolves the pattern-scheme implementation names understood by
// the standalone daemons (cmd/wfexec), so scripts can run without
// compiled-in Go implementations:
//
//	fixed:<outcome>              terminate in <outcome>, echoing inputs
//	                             into same-named output objects
//	sleep:<duration>:<outcome>   sleep, then behave like fixed
//	fail:<n>:<outcome>           fail n activations, then fixed (retries)
//
// Install with r.BindFallback(registry.Builtin).
//
// The sleep scheme holds a goroutine for the whole duration and
// restarts from zero when a crashed instance is recovered. For durable
// timing use the engine's first-class "delay" implementation property,
// which rides the crash-safe timing wheel and resumes at its original
// absolute deadline (see internal/engine and the "Temporal
// coordination" section of README.md).
func Builtin(code string) (Func, bool) {
	parts := strings.Split(code, ":")
	switch parts[0] {
	case "fixed":
		if len(parts) != 2 {
			return nil, false
		}
		return echoFunc(parts[1], 0), true
	case "sleep":
		if len(parts) != 3 {
			return nil, false
		}
		d, err := time.ParseDuration(parts[1])
		if err != nil {
			return nil, false
		}
		return echoFunc(parts[2], d), true
	case "fail":
		if len(parts) != 3 {
			return nil, false
		}
		var n int
		if _, err := fmt.Sscanf(parts[1], "%d", &n); err != nil {
			return nil, false
		}
		outcome := parts[2]
		return func(ctx Context) (Result, error) {
			if ctx.Attempt() < n {
				return Result{}, fmt.Errorf("builtin fail: attempt %d of %d", ctx.Attempt()+1, n)
			}
			return echoResult(ctx, outcome), nil
		}, true
	default:
		return nil, false
	}
}

// echoFunc returns a Func producing the outcome after an optional sleep.
// The sleep: builtin sleeps in wall time by definition (it is the
// documented restart-from-zero baseline; first-class delays ride the
// durable wheel and the engine clock instead).
func echoFunc(outcome string, d time.Duration) Func {
	return func(ctx Context) (Result, error) {
		if d > 0 {
			clk := timers.WallClock{}
			select {
			case <-clk.Wake(clk.Now().Add(d)):
			case <-ctx.Done():
				return Result{}, fmt.Errorf("builtin: cancelled")
			}
		}
		return echoResult(ctx, outcome), nil
	}
}

// echoResult copies every input object into a same-named output object,
// which satisfies any output whose field names match the inputs; fields
// the inputs do not cover are filled with a string placeholder. The
// engine conforms classes, so placeholders only work for outputs whose
// objects the inputs already cover — daemons use echo semantics for
// structural demos, not for typed data flow.
func echoResult(ctx Context, outcome string) Result {
	objs := make(Objects, len(ctx.Inputs()))
	for name, v := range ctx.Inputs() {
		objs[name] = v
	}
	return Result{Output: outcome, Objects: objs}
}
