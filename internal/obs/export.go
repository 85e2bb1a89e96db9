package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sync"
	"time"
)

// ExporterConfig configures a live telemetry exporter.
type ExporterConfig struct {
	// SnapshotPath, when non-empty, appends one Report JSON object per
	// Interval to this file (JSONL).
	SnapshotPath string
	// Interval between periodic snapshots; 0 defaults to 2s.
	Interval time.Duration
	// Listen, when non-empty, serves the Report at /metrics and the stdlib
	// pprof handlers under /debug/pprof/ over HTTP on this address (e.g.
	// "localhost:6060" or ":0" for an ephemeral port).
	Listen string
}

// Exporter periodically appends a tracer's Report to a JSONL file and/or
// serves it over HTTP, so a multi-hour training run can be inspected
// while it executes. Start it with StartExporter, stop it with Close:
// Close joins the snapshot goroutine (writing one final snapshot), shuts
// the HTTP server down, and closes the snapshot file.
type Exporter struct {
	t   *Tracer
	cfg ExporterConfig

	mu  sync.Mutex // guards enc + err across ticks and the final flush
	f   *os.File
	enc *json.Encoder
	err error

	srv  *http.Server
	addr string

	stop chan struct{}
	wg   sync.WaitGroup
}

// StartExporter launches an exporter over the tracer. At least one of
// SnapshotPath and Listen must be set; a nil tracer is rejected (there is
// nothing to export).
func StartExporter(t *Tracer, cfg ExporterConfig) (*Exporter, error) {
	if t == nil {
		return nil, fmt.Errorf("obs: exporter needs a live tracer")
	}
	if cfg.SnapshotPath == "" && cfg.Listen == "" {
		return nil, fmt.Errorf("obs: exporter needs a snapshot path or a listen address")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Second
	}
	e := &Exporter{t: t, cfg: cfg, stop: make(chan struct{})}

	if cfg.SnapshotPath != "" {
		f, err := os.Create(cfg.SnapshotPath)
		if err != nil {
			return nil, fmt.Errorf("obs: create snapshot file: %w", err)
		}
		e.f = f
		e.enc = json.NewEncoder(f)
	}
	if cfg.Listen != "" {
		ln, err := net.Listen("tcp", cfg.Listen)
		if err != nil {
			if e.f != nil {
				_ = e.f.Close() // nothing written yet; the listen error wins
			}
			return nil, fmt.Errorf("obs: exporter listen: %w", err)
		}
		e.addr = ln.Addr().String()
		e.srv = &http.Server{Handler: e.handler()}
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			// Serve returns ErrServerClosed after Shutdown; anything else is
			// a real failure worth surfacing at Close.
			if err := e.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				e.mu.Lock()
				if e.err == nil {
					e.err = err
				}
				e.mu.Unlock()
			}
		}()
	}

	e.wg.Add(1)
	go e.snapshotLoop()
	return e, nil
}

// Addr returns the HTTP listener's resolved address ("" without Listen) —
// the ephemeral-port answer for ":0" configs.
func (e *Exporter) Addr() string { return e.addr }

// snapshotLoop writes one snapshot per interval until Close, then a final
// one so the file always ends with the run's last state.
func (e *Exporter) snapshotLoop() {
	defer e.wg.Done()
	ticker := time.NewTicker(e.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			e.writeSnapshot()
		case <-e.stop:
			e.writeSnapshot()
			return
		}
	}
}

// writeSnapshot appends one Report line (no-op without a file).
func (e *Exporter) writeSnapshot() {
	if e.enc == nil {
		return
	}
	snap := e.t.Report()
	e.mu.Lock()
	if e.err == nil {
		e.err = e.enc.Encode(snap)
	}
	e.mu.Unlock()
}

// Close stops the snapshot goroutine (flushing a final snapshot), shuts
// down the HTTP server, closes the snapshot file, and reports the first
// error any of them hit. Idempotent-unsafe: call once.
func (e *Exporter) Close() error {
	close(e.stop)
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		err := e.srv.Shutdown(ctx)
		cancel()
		e.mu.Lock()
		if e.err == nil {
			e.err = err
		}
		e.mu.Unlock()
	}
	e.wg.Wait()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.f != nil {
		if cerr := e.f.Close(); e.err == nil {
			e.err = cerr
		}
		e.f = nil
	}
	return e.err
}

// handler builds the live-endpoint mux.
func (e *Exporter) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		_, _ = fmt.Fprint(w, "nautilus live telemetry\n\n/metrics\n/debug/pprof/\n")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		// Encode errors past the header are connection-level; nothing to do.
		_ = writeIndented(w, e.t.Report())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// writeIndented is the one indented encoding of a Report: the /metrics body
// and the -metrics file.
func writeIndented(w io.Writer, r *Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
