package engine

import (
	"fmt"
	"testing"
)

func TestRequestQueueFIFOAcrossWraparound(t *testing.T) {
	q := newRequestQueue(4) // capacity 16 ring
	next := 0
	popped := 0
	// Interleave pushes and pops so head travels around the ring many times.
	for round := 0; round < 40; round++ {
		for i := 0; i < 3; i++ {
			tk := &task{isRoot: true, procName: fmt.Sprint(next)}
			next++
			if _, err := q.enqueue(tk); err != nil {
				t.Fatalf("enqueue %d: %v", next-1, err)
			}
		}
		for i := 0; i < 3; i++ {
			tk, ok := q.tryDequeue()
			if !ok {
				t.Fatal("tryDequeue on non-empty queue returned !ok")
			}
			if tk.procName != fmt.Sprint(popped) {
				t.Fatalf("dequeued %q, want %d: FIFO order broken", tk.procName, popped)
			}
			popped++
		}
	}
	if q.depth() != 0 {
		t.Fatalf("depth = %d after balanced churn, want 0", q.depth())
	}
}

func TestRequestQueueGrowsBeyondInitialCapacity(t *testing.T) {
	q := newRequestQueue(2) // capacity 16 ring
	const n = 100           // far beyond the initial ring
	for i := 0; i < n; i++ {
		if _, err := q.enqueue(&task{isRoot: false, procName: fmt.Sprint(i)}); err != nil {
			t.Fatalf("enqueue %d rejected: %v", i, err)
		}
	}
	if q.depth() != n {
		t.Fatalf("depth = %d, want %d", q.depth(), n)
	}
	for i := 0; i < n; i++ {
		tk, ok := q.tryDequeue()
		if !ok || tk.procName != fmt.Sprint(i) {
			t.Fatalf("dequeue %d = (%v, %v), want in-order task", i, tk, ok)
		}
	}
}

// BenchmarkRequestQueueChurn measures steady-state enqueue/dequeue cost. The
// ring buffer holds allocations at zero per operation, where the previous
// slice FIFO (items = items[1:] plus append) leaked head capacity and
// reallocated under churn.
func BenchmarkRequestQueueChurn(b *testing.B) {
	q := newRequestQueue(256)
	tk := &task{isRoot: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.enqueue(tk); err != nil {
			b.Fatal(err)
		}
		if _, ok := q.tryDequeue(); !ok {
			b.Fatal("dequeue failed")
		}
	}
}

// BenchmarkRequestQueueDeepChurn keeps the queue half full while cycling, so
// the ring wraps continuously.
func BenchmarkRequestQueueDeepChurn(b *testing.B) {
	q := newRequestQueue(256)
	tk := &task{isRoot: true}
	for i := 0; i < 128; i++ {
		if _, err := q.enqueue(tk); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.enqueue(tk); err != nil {
			b.Fatal(err)
		}
		if _, ok := q.tryDequeue(); !ok {
			b.Fatal("dequeue failed")
		}
	}
}
