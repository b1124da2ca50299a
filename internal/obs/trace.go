package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"text/tabwriter"

	"pulphd/internal/pulp"
)

// Lane names the five cycle lanes a KernelResult decomposes into.
// They become the per-platform "threads" of the Chrome trace.
var laneNames = [...]string{"compute", "serial", "runtime", "dma", "dma (hidden)"}

// Lane indices.
const (
	laneCompute = iota
	laneSerial
	laneRuntime
	laneDMA
	laneDMAHidden
)

// KernelEvent is one recorded kernel: its cycle accounting plus the
// cumulative start offset on its platform's timeline.
type KernelEvent struct {
	Start  int64 // cycles since the platform timeline began
	Result pulp.KernelResult
}

// platformTrace is the sequential kernel timeline of one platform
// configuration.
type platformTrace struct {
	name   string
	cores  int
	cursor int64
	events []KernelEvent
}

// Trace records per-kernel simulator cycle accounting. It implements
// pulp.Tracer; attach it with Platform.Tracer = trace and every
// Run/RunChain kernel lands on the platform's timeline, kernels
// back to back the way the cluster executes a chain. Safe for
// concurrent recording from multiple goroutines.
type Trace struct {
	mu        sync.Mutex
	platforms []*platformTrace
	index     map[string]*platformTrace
}

// NewTrace returns an empty trace.
func NewTrace() *Trace {
	return &Trace{index: map[string]*platformTrace{}}
}

// RecordKernel implements pulp.Tracer.
func (t *Trace) RecordKernel(platform string, cores int, r pulp.KernelResult) {
	t.mu.Lock()
	defer t.mu.Unlock()
	key := fmt.Sprintf("%s/%d", platform, cores)
	pt := t.index[key]
	if pt == nil {
		pt = &platformTrace{name: platform, cores: cores}
		t.index[key] = pt
		t.platforms = append(t.platforms, pt)
	}
	pt.events = append(pt.events, KernelEvent{Start: pt.cursor, Result: r})
	pt.cursor += r.Total()
}

// Len returns the number of recorded kernel events.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, pt := range t.platforms {
		n += len(pt.events)
	}
	return n
}

// PlatformTotal is one platform timeline's cycle total.
type PlatformTotal struct {
	Name   string
	Cores  int
	Cycles int64
}

// Totals returns the total recorded cycles per platform timeline, in
// recording order — the input of the energy-per-classification
// estimate `pulphd trace` prints.
func (t *Trace) Totals() []PlatformTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]PlatformTotal, 0, len(t.platforms))
	for _, pt := range t.platforms {
		var cycles int64
		for _, ev := range pt.events {
			cycles += ev.Result.Total()
		}
		out = append(out, PlatformTotal{Name: pt.name, Cores: pt.cores, Cycles: cycles})
	}
	return out
}

// TraceEvent is one Chrome trace-event JSON object. The format is the
// Trace Event Format's JSON Array/Object flavour; chrome://tracing
// and Perfetto both load it. Timestamps are microseconds by spec — we
// map one simulated cycle to one microsecond, so durations read
// directly as cycles.
type TraceEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	Ts    int64          `json:"ts"`
	Dur   int64          `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Cat   string         `json:"cat,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level JSON object.
type chromeTrace struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// EncodeChromeTrace writes evs as one Chrome trace-event JSON
// document; no events encode as an empty list, never null.
func EncodeChromeTrace(w io.Writer, evs []TraceEvent) error {
	if evs == nil {
		evs = []TraceEvent{}
	}
	return json.NewEncoder(w).Encode(chromeTrace{TraceEvents: evs, DisplayTimeUnit: "ns"})
}

// WriteChromeTrace renders the trace as Chrome trace-event JSON. One
// process per platform configuration, one thread per cycle lane;
// every kernel emits a complete ("ph":"X") slice per non-zero lane.
// Hidden DMA overlaps the compute slice on its own lane, visualizing
// what double buffering buried.
func (t *Trace) WriteChromeTrace(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return EncodeChromeTrace(w, t.appendEventsLocked())
}

// appendEventsLocked renders the platform timelines as trace events,
// one process per platform from pid 1. Callers hold t.mu.
func (t *Trace) appendEventsLocked() []TraceEvent {
	var evs []TraceEvent
	for pi, pt := range t.platforms {
		pid := 1 + pi
		evs = append(evs, TraceEvent{
			Name: "process_name", Phase: "M", Pid: pid,
			Args: map[string]any{"name": fmt.Sprintf("%s (%d cores)", pt.name, pt.cores)},
		}, TraceEvent{
			Name: "process_sort_index", Phase: "M", Pid: pid,
			Args: map[string]any{"sort_index": pi},
		})
		for tid, lane := range laneNames {
			evs = append(evs, TraceEvent{
				Name: "thread_name", Phase: "M", Pid: pid, Tid: tid,
				Args: map[string]any{"name": lane},
			}, TraceEvent{
				Name: "thread_sort_index", Phase: "M", Pid: pid, Tid: tid,
				Args: map[string]any{"sort_index": tid},
			})
		}
		for _, ev := range pt.events {
			r := ev.Result
			// Sequential lanes in execution order; the hidden-DMA lane
			// runs concurrently with compute.
			slice := func(tid int, ts, dur int64) {
				if dur <= 0 {
					return
				}
				evs = append(evs, TraceEvent{
					Name: r.Name, Phase: "X", Ts: ts, Dur: dur,
					Pid: pid, Tid: tid, Cat: laneNames[tid],
					Args: map[string]any{"cycles": dur, "cores": pt.cores},
				})
			}
			ts := ev.Start
			slice(laneCompute, ts, r.ComputeCycles)
			slice(laneDMAHidden, ts, r.HiddenDMACycles)
			ts += r.ComputeCycles
			slice(laneSerial, ts, r.SerialCycles)
			ts += r.SerialCycles
			slice(laneRuntime, ts, r.RuntimeCycles)
			ts += r.RuntimeCycles
			slice(laneDMA, ts, r.DMACycles)
		}
	}
	return evs
}

// WriteSummary renders the trace as an aligned per-kernel cycle
// table, one block per platform, with a TOTAL row per platform and
// each kernel's share of the platform total.
func (t *Trace) WriteSummary(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "platform\tcores\tkernel\tcompute\tserial\truntime\tdma\tdma-hidden\ttotal\tshare")
	for _, pt := range t.platforms {
		var sum pulp.KernelResult
		for _, ev := range pt.events {
			r := ev.Result
			sum.ComputeCycles += r.ComputeCycles
			sum.SerialCycles += r.SerialCycles
			sum.RuntimeCycles += r.RuntimeCycles
			sum.DMACycles += r.DMACycles
			sum.HiddenDMACycles += r.HiddenDMACycles
		}
		for _, ev := range pt.events {
			r := ev.Result
			share := 0.0
			if sum.Total() > 0 {
				share = 100 * float64(r.Total()) / float64(sum.Total())
			}
			fmt.Fprintf(tw, "%s\t%d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%.1f%%\n",
				pt.name, pt.cores, r.Name, r.ComputeCycles, r.SerialCycles,
				r.RuntimeCycles, r.DMACycles, r.HiddenDMACycles, r.Total(), share)
		}
		fmt.Fprintf(tw, "%s\t%d\tTOTAL\t%d\t%d\t%d\t%d\t%d\t%d\t100.0%%\n",
			pt.name, pt.cores, sum.ComputeCycles, sum.SerialCycles,
			sum.RuntimeCycles, sum.DMACycles, sum.HiddenDMACycles, sum.Total())
	}
	return tw.Flush()
}
