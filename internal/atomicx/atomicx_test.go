package atomicx

import (
	"sync"
	"testing"
)

func TestAddFloat64Concurrent(t *testing.T) {
	var x float64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				AddFloat64(&x, 0.5)
			}
		}()
	}
	wg.Wait()
	if x != 4000 {
		t.Fatalf("x = %v, want 4000", x)
	}
}
