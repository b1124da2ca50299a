package obs

import "sync"

// This file is the online accuracy/drift monitor of the serving
// stack. The feedback signal is a correction: when the wearer (or a
// downstream consumer) corrects a decision, we learn what the model
// predicted and what the window actually was — a labelled sample of
// serving accuracy. The monitor keeps a rolling agreement window that
// surfaces drift: a falling rolling accuracy means the data moved from
// under the model.

// driftWindow is the rolling agreement window size: small enough to
// react within a session, large enough that one bad correction does
// not swing the gauge.
const driftWindow = 256

// DriftMonitor accumulates prediction-vs-correction feedback. The
// zero value is ready to use, and every method is nil-safe, so an
// uninstalled monitor is free.
type DriftMonitor struct {
	mu      sync.Mutex
	ring    [driftWindow]bool
	n       int // total feedbacks ever
	correct int // agreements currently in the ring
}

// RecordFeedback folds one corrected decision in: the model said
// predicted, the truth was actual.
func (d *DriftMonitor) RecordFeedback(predicted, actual string) {
	if d == nil {
		return
	}
	ok := predicted == actual
	d.mu.Lock()
	slot := d.n % driftWindow
	if d.n >= driftWindow && d.ring[slot] {
		d.correct--
	}
	d.ring[slot] = ok
	if ok {
		d.correct++
	}
	d.n++
	d.mu.Unlock()
}

// RollingAccuracyPermille returns the agreement rate over the last
// driftWindow feedbacks, in thousandths (gauges are integers); -1
// when no feedback has arrived yet, so dashboards can distinguish
// "no signal" from "everything wrong".
func (d *DriftMonitor) RollingAccuracyPermille() int64 {
	if d == nil {
		return -1
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	n := d.n
	if n == 0 {
		return -1
	}
	if n > driftWindow {
		n = driftWindow
	}
	return int64(d.correct) * 1000 / int64(n)
}
