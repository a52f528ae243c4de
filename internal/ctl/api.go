package ctl

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// The REST surface, versioned under /api/v1:
//
//	POST /api/v1/runs                     submit a RunSpec -> RunInfo
//	GET  /api/v1/runs                     list runs
//	GET  /api/v1/runs/{id}                one run, with per-cell detail
//	GET  /api/v1/runs/{id}/artifact       canonical artifact bytes
//	GET  /api/v1/runs/{id}/manifest       live RunManifest (cell -> result SHA map)
//	GET  /api/v1/objects/{sha}            stored object bytes (cell result or artifact)
//	GET  /api/v1/runs/{id}/events         SSE progress stream
//	POST /api/v1/runs/{id}/abort          {"reason"} -> RunInfo (run fails, nothing re-queues)
//	POST /api/v1/agents                   {"name"} -> {"agent_id"}
//	POST /api/v1/agents/{id}/heartbeat
//	POST /api/v1/agents/{id}/lease        -> LeaseTask, or 204 if idle
//	POST /api/v1/leases/{id}/complete     body = canonical cell result
//	POST /api/v1/leases/{id}/fail         {"reason"}
//
// Errors are {"error": "..."} with 404 for unknown IDs, 409 for stale
// leases (the agent's cue to discard the result and poll on) and 413 for a
// request body over its cap.

// Request body caps.  A body over its cap is cut off unread past the cap
// and answered 413, so one hostile or runaway request cannot make the
// coordinator buffer an unbounded body.
const (
	// maxJSONBody caps the JSON request bodies: a RunSpec (an inline
	// scenario spec is a few KB; the shipped ones are at most 1.4 KB), an
	// agent name, an abort or fail reason.
	maxJSONBody = 1 << 20
	// maxResultBody caps a completed cell's canonical result.  The largest
	// any builtin experiment or shipped scenario produces is fig10's flink
	// per-node series: 24,287 B at quick scale and 78,199 B at full scale
	// (seed 42).  Every other quick-scale cell is under 5 KB.  The cap
	// leaves more than 50x headroom.
	maxResultBody = 4 << 20
)

// NewHandler serves a coordinator's REST API.
func NewHandler(c *Coordinator) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /api/v1/runs", func(w http.ResponseWriter, r *http.Request) {
		var spec RunSpec
		r.Body = http.MaxBytesReader(w, r.Body, maxJSONBody)
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			writeErr(w, bodyStatus(err), fmt.Errorf("bad spec: %w", err))
			return
		}
		info, err := c.Submit(spec)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusCreated, info)
	})

	mux.HandleFunc("GET /api/v1/runs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.Runs())
	})

	mux.HandleFunc("GET /api/v1/runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		info, err := c.Run(r.PathValue("id"))
		if err != nil {
			writeErr(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	})

	mux.HandleFunc("GET /api/v1/runs/{id}/artifact", func(w http.ResponseWriter, r *http.Request) {
		data, err := c.Artifact(r.PathValue("id"))
		if err != nil {
			writeErr(w, statusFor(err), err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(data)
	})

	mux.HandleFunc("GET /api/v1/runs/{id}/manifest", func(w http.ResponseWriter, r *http.Request) {
		m, err := c.Manifest(r.PathValue("id"))
		if err != nil {
			writeErr(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, m)
	})

	mux.HandleFunc("GET /api/v1/objects/{sha}", func(w http.ResponseWriter, r *http.Request) {
		data, err := c.Object(r.PathValue("sha"))
		if err != nil {
			writeErr(w, statusFor(err), err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(data)
	})

	mux.HandleFunc("GET /api/v1/runs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		serveEvents(c, w, r)
	})

	mux.HandleFunc("POST /api/v1/runs/{id}/abort", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Reason string `json:"reason"`
		}
		r.Body = http.MaxBytesReader(w, r.Body, maxJSONBody)
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
			writeErr(w, bodyStatus(err), err)
			return
		}
		info, err := c.Abort(r.PathValue("id"), req.Reason)
		if err != nil {
			writeErr(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	})

	mux.HandleFunc("POST /api/v1/agents", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Name string `json:"name"`
		}
		r.Body = http.MaxBytesReader(w, r.Body, maxJSONBody)
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
			writeErr(w, bodyStatus(err), err)
			return
		}
		id, err := c.Register(req.Name)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]string{"agent_id": id})
	})

	mux.HandleFunc("POST /api/v1/agents/{id}/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		if err := c.Heartbeat(r.PathValue("id")); err != nil {
			writeErr(w, statusFor(err), err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("POST /api/v1/agents/{id}/lease", func(w http.ResponseWriter, r *http.Request) {
		task, err := c.Lease(r.PathValue("id"))
		if err != nil {
			writeErr(w, statusFor(err), err)
			return
		}
		if task == nil {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		writeJSON(w, http.StatusOK, task)
	})

	mux.HandleFunc("POST /api/v1/leases/{id}/complete", func(w http.ResponseWriter, r *http.Request) {
		result, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxResultBody))
		if err != nil {
			writeErr(w, bodyStatus(err), err)
			return
		}
		if err := c.Complete(r.PathValue("id"), result); err != nil {
			writeErr(w, statusFor(err), err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("POST /api/v1/leases/{id}/fail", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Reason string `json:"reason"`
		}
		r.Body = http.MaxBytesReader(w, r.Body, maxJSONBody)
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
			writeErr(w, bodyStatus(err), err)
			return
		}
		if err := c.Fail(r.PathValue("id"), req.Reason); err != nil {
			writeErr(w, statusFor(err), err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})

	return mux
}

// serveEvents streams a run's progress as server-sent events ("data:"
// lines carrying Event JSON) until the run reaches a terminal status or
// the client goes away.  The first event is a synthetic snapshot so late
// watchers see the current state immediately.
func serveEvents(c *Coordinator, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Subscribe before snapshotting so no transition can fall between.
	events, cancel := c.Subscribe(id)
	defer cancel()
	info, err := c.Run(id)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	send := func(ev Event) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
			return false
		}
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		return !ev.Status.Terminal() || ev.Type != "run"
	}

	if !send(Event{
		Type: "run", RunID: info.ID, Status: info.Status,
		Done: info.CellsDone, Total: info.CellsTotal, Error: info.Error,
	}) {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-events:
			if !ok || !send(ev) {
				return
			}
		}
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// bodyStatus maps a request-body read or decode error to its status: 413
// when the body overran its cap, 400 otherwise.
func bodyStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrStaleLease), errors.Is(err, ErrConflict):
		return http.StatusConflict
	default:
		return http.StatusInternalServerError
	}
}
