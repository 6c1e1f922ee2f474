package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"epajsrm/internal/service"
)

// hosting is an in-process simulation service with a fsyncing journal in
// a temporary directory under outDir, served on loopback through its real
// HTTP handler.
type hosting struct {
	svc       *service.Service
	base      string
	closeHTTP func(context.Context) error
	dir       string
	client    *http.Client
}

// startHosting opens the journal, starts the service and its listener,
// and returns once the listener has answered GET /healthz.
func startHosting(maxActive int) (*hosting, error) {
	root := filepath.Join(outDir, "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, "journal-")
	if err != nil {
		return nil, err
	}
	cfg := service.Default()
	cfg.MaxActive = maxActive
	cfg.JournalDir = dir
	svc, err := service.New(cfg)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	addr, closeHTTP, err := svc.Serve("127.0.0.1:0")
	if err != nil {
		svc.Shutdown(context.Background()) //nolint:errcheck // nothing was admitted
		os.RemoveAll(dir)
		return nil, err
	}
	h := &hosting{
		svc:       svc,
		base:      "http://" + addr,
		closeHTTP: closeHTTP,
		dir:       dir,
		client:    &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}},
	}
	if r, err := h.do(http.MethodGet, "/healthz", nil); err != nil || r.code != http.StatusOK {
		h.stop() //nolint:errcheck // the health failure is the one to report
		return nil, fmt.Errorf("service not healthy after start: status %d: %v", r.code, err)
	}
	return h, nil
}

// stop drains the listener and the service and removes the journal.
func (h *hosting) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	h.client.CloseIdleConnections()
	err := h.closeHTTP(ctx)
	if serr := h.svc.Shutdown(ctx); err == nil {
		err = serr
	}
	if rerr := os.RemoveAll(h.dir); err == nil {
		err = rerr
	}
	return err
}

// reply is one HTTP exchange: status, body, and the time from sending the
// request to receiving the whole body.
type reply struct {
	code int
	body []byte
	dur  time.Duration
}

func (h *hosting) do(method, path string, body []byte) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, h.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	resp, err := h.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return reply{code: resp.StatusCode, body: b, dur: time.Since(t0)}, err
}

// submit posts a run spec; a 202 yields the run ID.
func (h *hosting) submit(spec service.Spec) (string, reply, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", reply{}, err
	}
	r, err := h.do(http.MethodPost, "/runs", body)
	if err != nil {
		return "", r, err
	}
	if r.code != http.StatusAccepted {
		return "", r, fmt.Errorf("POST /runs: status %d: %s", r.code, bytes.TrimSpace(r.body))
	}
	var info service.RunInfo
	if err := json.Unmarshal(r.body, &info); err != nil || info.ID == "" {
		return "", r, fmt.Errorf("POST /runs: bad reply %q", r.body)
	}
	return info.ID, r, nil
}

// pollTerminal polls GET /runs/{id} every interval until the run is
// terminal, calling each for every poll's reply.
func (h *hosting) pollTerminal(id string, every time.Duration, each func(reply)) (service.RunInfo, error) {
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		r, err := h.do(http.MethodGet, "/runs/"+id, nil)
		if err != nil {
			return service.RunInfo{}, err
		}
		each(r)
		if r.code != http.StatusOK {
			return service.RunInfo{}, fmt.Errorf("GET /runs/%s: status %d", id, r.code)
		}
		var info service.RunInfo
		if err := json.Unmarshal(r.body, &info); err != nil {
			return info, fmt.Errorf("GET /runs/%s: %v", id, err)
		}
		if service.RunState(info.State).Terminal() {
			return info, nil
		}
		time.Sleep(every)
	}
	return service.RunInfo{}, fmt.Errorf("run %s not terminal after 2m", id)
}

// registryPoint is one entry of a /metrics.json registry snapshot.
type registryPoint struct {
	Value  float64   `json:"value"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
}

func (h *hosting) registry(path string) (map[string]registryPoint, error) {
	r, err := h.do(http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	if r.code != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, r.code)
	}
	var pts map[string]registryPoint
	if err := json.Unmarshal(r.body, &pts); err != nil {
		return nil, fmt.Errorf("GET %s: %v", path, err)
	}
	return pts, nil
}
