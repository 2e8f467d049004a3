package par

import (
	"errors"
	"sync/atomic"
	"testing"
)

var errStub = errors.New("stub fault")

func TestPoolRunsAllThreads(t *testing.T) {
	p := MustNewPool(7)
	defer p.Close()
	var mask atomic.Int64
	p.Run(func(th int) { mask.Add(1 << th) })
	if mask.Load() != (1<<7)-1 {
		t.Fatalf("threads mask = %b", mask.Load())
	}
}

func TestPoolSequentialPhases(t *testing.T) {
	p := MustNewPool(4)
	defer p.Close()
	var counter atomic.Int64
	for phase := 0; phase < 50; phase++ {
		p.Run(func(th int) { counter.Add(1) })
		if got := counter.Load(); got != int64((phase+1)*4) {
			t.Fatalf("after phase %d: counter=%d", phase, got)
		}
	}
}

func TestPoolCloseIdempotent(t *testing.T) {
	p := MustNewPool(2)
	p.Run(func(int) {})
	p.Close()
	p.Close()
}

func TestNewPoolRejectsBadSize(t *testing.T) {
	if _, err := NewPool(0); err == nil {
		t.Fatal("NewPool(0) must error")
	}
	if _, err := NewPool(-3); err == nil {
		t.Fatal("NewPool(-3) must error")
	}
}

func TestMustNewPoolPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewPool(0) must panic")
		}
	}()
	MustNewPool(0)
}

func TestRunRecoversWorkerPanic(t *testing.T) {
	p := MustNewPool(4)
	defer p.Close()
	err := p.Run(func(th int) {
		if th == 2 {
			panic("boom")
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %v", err)
	}
	if pe.Thread != 2 {
		t.Fatalf("panic attributed to thread %d, want 2", pe.Thread)
	}
	// The pool must stay usable after a recovered panic.
	if err := p.Run(func(int) {}); err != nil {
		t.Fatalf("pool unusable after panic: %v", err)
	}
}

func TestPoolHookErrors(t *testing.T) {
	p := MustNewPool(4)
	defer p.Close()
	p.SetHook(func(th int) error {
		if th == 1 {
			return errStub
		}
		return nil
	})
	var ran atomic.Int64
	if err := p.Run(func(int) { ran.Add(1) }); err == nil {
		t.Fatal("hook error must surface from Run")
	}
	if ran.Load() != 3 {
		t.Fatalf("hooked thread must not run its body: ran=%d", ran.Load())
	}
	p.SetHook(nil)
	if err := p.Run(func(int) {}); err != nil {
		t.Fatalf("cleared hook must not error: %v", err)
	}
}
