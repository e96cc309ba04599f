package mat

import (
	"runtime"
	"testing"
)

// panicFrame runs fn, which must panic, and reports whether the frame of
// the function named name that panicked was inlined into its caller:
// runtime.CallersFrames gives an inlined frame no *runtime.Func.
func panicFrame(t *testing.T, name string, fn func()) (inlined bool) {
	t.Helper()
	var pcs [64]uintptr
	n := 0
	func() {
		defer func() {
			n = runtime.Callers(1, pcs[:])
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}()
	frames := runtime.CallersFrames(pcs[:n])
	for {
		f, more := frames.Next()
		if f.Function == name {
			return f.Func == nil
		}
		if !more {
			t.Fatalf("no frame of %s on the panicking stack", name)
		}
	}
}

// inlineProbe is far below any inlining budget: when it does not inline,
// the build has inlining off (-gcflags=-l, a debugger build) and the pin
// below has nothing to check.
func inlineProbe(i int) {
	if i < 0 {
		panic("mat: probe")
	}
}

// TestAccessorsInline pins that Matrix.At, Set, Add and Row inline, so the
// kernels that reach elements and rows through them pay no call per access:
// their one bounds check panics with a value formatted only when printed.
func TestAccessorsInline(t *testing.T) {
	if !panicFrame(t, "repro/internal/mat.inlineProbe", func() { inlineProbe(-1) }) {
		t.Skip("inlining is off in this build")
	}
	m := New(2, 3)
	for name, fn := range map[string]func(){
		"At":  func() { m.At(2, 0) },
		"Set": func() { m.Set(0, 3, 1) },
		"Add": func() { m.Add(-1, 0, 1) },
		"Row": func() { m.Row(2) },
	} {
		if !panicFrame(t, "repro/internal/mat.(*Matrix)."+name, fn) {
			t.Errorf("Matrix.%s does not inline", name)
		}
	}
}
