package replica

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"pulphd/internal/registry"
)

// pollTick is how often the long-poll snapshot handler re-checks the
// model's generation while a waiting client holds the request open.
const pollTick = 20 * time.Millisecond

// maxLongPoll bounds how long a snapshot request may hold a handler
// goroutine, whatever the client asked for.
const maxLongPoll = 30 * time.Second

// ListResponse is the body of GET /replica/v1/models: every model's
// registry Info. A replica syncs against Generation plus, for cold
// models, the WALRecords tail not yet folded into the listed
// generation (the sum is an upper bound on the true generation; the
// snapshot fetch faults the model in and returns the exact state).
type ListResponse struct {
	Models []registry.Info `json:"models"`
}

// Handler serves the primary side of the replication protocol over a
// registry:
//
//	GET /replica/v1/models                    → ListResponse
//	GET /replica/v1/models/{model}/snapshot   → PULPHD03 snapshot bytes
//
// The snapshot route long-polls with ?ifnewer=G&wait=D: it answers as
// soon as the model's generation exceeds G, or 304 Not Modified when
// D elapses first — so an idle fleet costs one held-open request per
// model per wait window instead of a fetch per poll.
type Handler struct {
	reg *registry.Registry
}

// NewHandler builds the primary-side sync handler over reg.
func NewHandler(reg *registry.Registry) *Handler { return &Handler{reg: reg} }

// Register installs the replication routes on mux.
func (h *Handler) Register(mux *http.ServeMux) {
	mux.HandleFunc("GET /replica/v1/models", h.handleList)
	mux.HandleFunc("GET /replica/v1/models/{model}/snapshot", h.handleSnapshot)
}

func (h *Handler) handleList(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(ListResponse{Models: h.reg.List()})
}

// generationUpper is the highest generation name could be at: exact
// when resident, snapshot generation plus unfolded WAL tail when cold.
func generationUpper(info registry.Info) uint64 {
	g := info.Generation
	if !info.Resident {
		g += uint64(info.WALRecords)
	}
	return g
}

func (h *Handler) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("model")
	q := r.URL.Query()
	if s := q.Get("ifnewer"); s != "" {
		ifnewer, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			http.Error(w, "bad ifnewer: "+err.Error(), http.StatusBadRequest)
			return
		}
		wait := time.Duration(0)
		if ws := q.Get("wait"); ws != "" {
			if wait, err = time.ParseDuration(ws); err != nil {
				http.Error(w, "bad wait: "+err.Error(), http.StatusBadRequest)
				return
			}
		}
		if wait > maxLongPoll {
			wait = maxLongPoll
		}
		if !h.waitNewer(r, name, ifnewer, wait) {
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	// The export is one in-memory frame (remat models are ~hundreds of
	// bytes, stored EMG models tens of KB), so the response carries an
	// honest Content-Length and the generation header describes exactly
	// the bytes that follow.
	snap, gen, err := h.reg.ExportServing(nil, name)
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, registry.ErrNotFound) {
			code = http.StatusNotFound
		}
		http.Error(w, err.Error(), code)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(snap)))
	w.Header().Set("X-PULPHD-Generation", strconv.FormatUint(gen, 10))
	w.Write(snap)
}

// waitNewer blocks until name's generation upper bound exceeds
// ifnewer or the wait window (or the client) gives up; it reports
// whether a newer generation exists. An unknown model returns true
// immediately so the export path can answer the 404.
func (h *Handler) waitNewer(r *http.Request, name string, ifnewer uint64, wait time.Duration) bool {
	deadline := time.Now().Add(wait)
	for {
		info, err := h.reg.ModelInfo(name)
		if err != nil || generationUpper(info) > ifnewer {
			return true
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return false
		}
		tick := pollTick
		if tick > remaining {
			tick = remaining
		}
		select {
		case <-r.Context().Done():
			return false
		case <-time.After(tick):
		}
	}
}
