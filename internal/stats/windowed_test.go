package stats

import (
	"sync"
	"testing"
	"time"
)

func TestWindowedHistogramRotateIsolatesWindows(t *testing.T) {
	w := NewWindowedHistogram(ExponentialBounds(1, 2, 10))
	for i := 0; i < 100; i++ {
		w.Observe(4)
	}
	first := w.Rotate()
	if first.Count != 100 {
		t.Fatalf("first window count = %d, want 100", first.Count)
	}
	// The new window starts empty: old observations must not leak through.
	for i := 0; i < 10; i++ {
		w.Observe(512)
	}
	second := w.Rotate()
	if second.Count != 10 {
		t.Fatalf("second window count = %d, want 10", second.Count)
	}
	if q := second.Quantile(0.99); q < 256 {
		t.Fatalf("second window p99 = %v, want >= 256 (old fast samples must not dilute it)", q)
	}
	if third := w.Rotate(); third.Count != 0 {
		t.Fatalf("empty window count = %d, want 0", third.Count)
	}
}

func TestWindowedHistogramConcurrentObserveDuringRotate(t *testing.T) {
	w := NewWindowedHistogram(ExponentialBounds(1, 2, 10))
	const observers, perObserver = 4, 5000
	var wg sync.WaitGroup
	stopRotate := make(chan struct{})
	rotatorDone := make(chan int64, 1)
	go func() {
		var rotated int64
		for {
			select {
			case <-stopRotate:
				rotatorDone <- rotated
				return
			default:
				rotated += w.Rotate().Count
				// A realistic controller rotates every few milliseconds; a
				// rotation storm racing every observation would legitimately
				// drop many stragglers (documented behaviour, not a defect).
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	for g := 0; g < observers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perObserver; i++ {
				w.Observe(float64(i % 7))
			}
		}()
	}
	wg.Wait()
	close(stopRotate)
	// The rotator goroutine is the single rotator while it lives; only after
	// it reports done may this goroutine rotate the final windows out.
	rotated := <-rotatorDone
	rotated += w.Rotate().Count
	rotated += w.Rotate().Count
	// Rotation may drop straggler observations (documented), so the windows
	// can undercount — but nothing may ever be counted twice, and with
	// throttled rotation the windows must see real traffic.
	if rotated > observers*perObserver {
		t.Fatalf("windows accounted %d observations, more than the %d recorded", rotated, observers*perObserver)
	}
	if rotated < observers*perObserver/4 {
		t.Fatalf("windows accounted only %d of %d observations", rotated, observers*perObserver)
	}
}
