package stats

import "sync/atomic"

// WindowedHistogram is a Histogram pair whose active half collects the
// current measurement window while the previous window is read and recycled.
// The engine's executor load signal uses it to read queue-wait p99 over the
// interval since its last read instead of over the run's whole lifetime: a
// cumulative histogram dilutes an overload that started seconds ago under
// millions of old fast observations, and never forgets one that ended.
//
// Observe is as cheap as Histogram.Observe plus one atomic pointer load, so
// it is safe on the scheduler's hot path. Rotate must not be called
// concurrently with itself; concurrent observers that race a rotation land
// in one window or the other, never in neither.
type WindowedHistogram struct {
	active atomic.Pointer[Histogram]
	// spare is the retired window being drained; owned by the single rotator.
	spare *Histogram
}

// NewWindowedHistogram creates a windowed histogram with the given bucket
// bounds (see NewHistogram).
func NewWindowedHistogram(bounds []float64) *WindowedHistogram {
	w := &WindowedHistogram{spare: NewHistogram(bounds)}
	w.active.Store(NewHistogram(bounds))
	return w
}

// Observe records one observation into the current window.
func (w *WindowedHistogram) Observe(v float64) { w.active.Load().Observe(v) }

// Rotate closes the current window and returns its snapshot, atomically
// installing a fresh window for subsequent observations. A straggler that
// loaded the old window pointer just before the swap may still record into
// the snapshot's source after the snapshot was taken; such observations are
// dropped with the reset, which for control purposes is indistinguishable
// from having landed a microsecond earlier. Single rotator only.
func (w *WindowedHistogram) Rotate() HistogramSnapshot {
	w.spare.Reset()
	old := w.active.Swap(w.spare)
	snap := old.Snapshot()
	w.spare = old
	return snap
}
