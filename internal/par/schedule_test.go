package par

import (
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"polymer/internal/barrier"
)

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 17 [running]:"). Ids are never reused within a process.
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	id, err := strconv.ParseUint(strings.Fields(string(buf[:n]))[1], 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// TestRunSchedule pins the contract: whatever GOMAXPROCS is (the -cpu
// list and the values set here), Run and RunCtx execute every simulated
// thread on the goroutine that called them, in ascending thread id, and a
// thread that panics or whose hook fails does not skip the threads after
// it (how the failure is reported: TestRunFailureDoesNotSkipFollowers).
func TestRunSchedule(t *testing.T) {
	fail := func(th int) bool { return th == 2 || th == 5 }
	for _, shape := range [][2]int{{8, 10}, {3, 4}, {5, 1}, {1, 6}} {
		nodes, cpn := shape[0], shape[1]
		for _, procs := range []int{runtime.GOMAXPROCS(0), 1, 3, nodes + 5} {
			for _, mode := range []string{"clean", "panic", "hook"} {
				p, err := NewNodePool(nodes, cpn)
				if err != nil {
					t.Fatal(err)
				}
				if mode == "hook" {
					p.SetHook(func(th int) error {
						if fail(th) {
							return errStub
						}
						return nil
					})
				}
				var ran, want []int
				caller := goid()
				body := func(th int) {
					if id := goid(); id != caller {
						t.Errorf("thread %d ran on goroutine %d, caller is %d", th, id, caller)
					}
					if mode == "panic" && fail(th) {
						panic(th)
					}
					ran = append(ran, th)
				}
				prev := runtime.GOMAXPROCS(procs)
				err1 := p.Run(body)
				err2 := p.RunCtx(context.Background(), body)
				runtime.GOMAXPROCS(prev)

				for pass := 0; pass < 2; pass++ {
					for th := 0; th < nodes*cpn; th++ {
						if mode == "clean" || !fail(th) {
							want = append(want, th)
						}
					}
				}
				if !reflect.DeepEqual(ran, want) {
					t.Fatalf("%dx%d %s at GOMAXPROCS=%d: ran %v, want %v", nodes, cpn, mode, procs, ran, want)
				}
				if failed := err1 != nil || err2 != nil; failed != (mode != "clean") {
					t.Fatalf("%dx%d %s at GOMAXPROCS=%d: Run = %v, RunCtx = %v", nodes, cpn, mode, procs, err1, err2)
				}
			}
		}
	}
}

// A failure in simulated thread k is reported with k's id, the first one
// wins, and the threads that follow k still run.
func TestRunFailureDoesNotSkipFollowers(t *testing.T) {
	p, err := NewNodePool(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, viaHook := range []bool{false, true} {
		ran := make([]bool, p.Threads())
		fail := func(th int) bool { return th == 2 || th == 5 }
		if viaHook {
			p.SetHook(func(th int) error {
				if fail(th) {
					return errStub
				}
				return nil
			})
		}
		err := p.Run(func(th int) {
			if !viaHook && fail(th) {
				panic(th)
			}
			ran[th] = true
		})
		p.SetHook(nil)
		var pe *PanicError
		switch {
		case viaHook && !errors.Is(err, errStub):
			t.Fatalf("hook failure reported as %v", err)
		case !viaHook && (!errors.As(err, &pe) || pe.Thread != 2):
			t.Fatalf("panic reported as %v, want *PanicError{Thread: 2}", err)
		}
		for th, ok := range ran {
			if ok == fail(th) {
				t.Fatalf("viaHook=%v: thread %d ran=%v", viaHook, th, ok)
			}
		}
	}
}

// TestRunDoesNotAllocate: Run and RunCtx keep their fn off the heap, so a
// phase closure that captures the caller's locals, as every engine phase
// does, stays on the caller's stack. Only RunConcurrent, whose goroutines
// capture fn, may move it to the heap.
func TestRunDoesNotAllocate(t *testing.T) {
	p, err := NewNodePool(8, 10)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	counts := make([]int64, p.Threads())
	var phases, sum int64
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"Run", func() error {
			phases++
			return p.Run(func(th int) { counts[th] += phases; sum += int64(th) })
		}},
		{"RunCtx", func() error {
			phases++
			return p.RunCtx(ctx, func(th int) { counts[th] -= phases; sum -= int64(th) })
		}},
	} {
		if n := testing.AllocsPerRun(100, func() {
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("Pool.%s allocates %v times per dispatch of a capturing closure, want 0", c.name, n)
		}
	}
	if sum != 0 {
		t.Fatalf("the two phases' closures summed to %d, want 0", sum)
	}
}

// RunConcurrent really is one goroutine per simulated thread: an n-party
// barrier inside the phase completes on a single P.
func TestRunConcurrentCompletesBarrier(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p, err := NewNodePool(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	b := barrier.New(barrier.N, 4, 3)
	done := make(chan error, 1)
	go func() {
		done <- p.RunConcurrent(context.Background(), func(th int) {
			for r := 0; r < 10; r++ {
				b.Wait(th)
			}
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("barrier phase did not complete: threads are sharing a goroutine")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.RunConcurrent(ctx, func(int) { t.Error("dispatched past a cancelled context") }); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunConcurrent = %v, want context.Canceled", err)
	}
}

// Run executes the threads one after another on one goroutine, so a body
// that waits for another thread hangs the phase at any GOMAXPROCS. Scan
// every non-test file in the module: no function literal handed to Run,
// RunCtx or an engine's RunPhase may block on a barrier, yield-spin, or
// touch a channel.
func TestRunIsNeverHandedAWaitingBody(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "../.." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "Run" && sel.Sel.Name != "RunCtx" && sel.Sel.Name != "RunPhase") {
				return true
			}
			body, ok := call.Args[len(call.Args)-1].(*ast.FuncLit)
			if !ok {
				return true
			}
			ast.Inspect(body, func(n ast.Node) bool {
				bad := ""
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if n.Sel.Name == "Wait" || n.Sel.Name == "Gosched" {
						bad = n.Sel.Name
					}
				case *ast.SendStmt, *ast.SelectStmt:
					bad = "channel operation"
				case *ast.UnaryExpr:
					if n.Op == token.ARROW {
						bad = "channel receive"
					}
				}
				if bad != "" {
					t.Errorf("%s: phase body handed to %s waits (%s); use RunConcurrent",
						fset.Position(n.Pos()), sel.Sel.Name, bad)
				}
				return true
			})
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
