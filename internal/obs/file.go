package obs

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// Trace file formats accepted by -trace-format.
const (
	FormatChrome = "chrome"
	FormatJSONL  = "jsonl"
)

// Telemetry is the commands' telemetry flag block and what it opens: the
// one declaration of -trace, -trace-format, -metrics, -listen and -live,
// the tracer they ask for, and the live exporter over it. Register the
// flags, parse, Open, hand Tracer to the run, Close.
type Telemetry struct {
	Trace, TraceFormat, Metrics, Listen, Live string

	// Tracer is set by Open; nil when no flag asked for telemetry.
	Tracer   *Tracer
	exporter *Exporter
}

// RegisterFlags declares the telemetry flags on fs.
func (t *Telemetry) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&t.Trace, "trace", "", "write a span trace to this file")
	fs.StringVar(&t.TraceFormat, "trace-format", FormatChrome, "trace file format: chrome (chrome://tracing / perfetto) or jsonl")
	fs.StringVar(&t.Metrics, "metrics", "", "write metrics + conformance JSON to this file")
	fs.StringVar(&t.Listen, "listen", "", "serve live telemetry over HTTP on this address (/metrics, /conformance, /spans, /debug/pprof/)")
	fs.StringVar(&t.Live, "live", "", "append periodic live-telemetry snapshots (JSONL) to this file")
}

// Open builds what the flags ask for and notes on log where to find it.
// -trace gets a tracer writing spans to that file ("chrome" emits a Chrome
// trace-event JSON for chrome://tracing or ui.perfetto.dev, "jsonl" one JSON
// object per span); -metrics, -listen and -live alone — or force, for a
// caller that reads the tracer itself — get a sinkless one (registry,
// samples and conformance, no span output). -listen / -live start the
// exporter over it. With nothing asked for, Tracer stays nil: no
// instrumentation.
func (t *Telemetry) Open(force bool, log io.Writer) error {
	switch {
	case t.Trace != "":
		f, err := os.Create(t.Trace)
		if err != nil {
			return fmt.Errorf("obs: create trace file: %w", err)
		}
		switch t.TraceFormat {
		case FormatChrome, "":
			t.Tracer = New(NewChromeTraceSink(f))
		case FormatJSONL:
			t.Tracer = New(NewJSONLSink(f))
		default:
			_ = f.Close() // nothing written yet; the format error wins
			return fmt.Errorf("obs: unknown trace format %q (want %s or %s)", t.TraceFormat, FormatChrome, FormatJSONL)
		}
	case force || t.Metrics != "" || t.Listen != "" || t.Live != "":
		t.Tracer = New(nil)
	}
	if t.Listen == "" && t.Live == "" {
		return nil
	}
	var err error
	t.exporter, err = StartExporter(t.Tracer, ExporterConfig{SnapshotPath: t.Live, Listen: t.Listen})
	if err != nil {
		return err
	}
	if t.Listen != "" {
		_, err = fmt.Fprintf(log, "live telemetry on http://%s (/metrics /conformance /spans /debug/pprof/)\n", t.exporter.Addr())
	}
	return err
}

// Close stops the exporter (flushing a last snapshot), writes the -metrics
// report (registry snapshot, conformance, span stats as indented JSON) and
// flushes and closes the trace file, noting each artifact on log. It is a
// no-op when Open built nothing.
func (t *Telemetry) Close(log io.Writer) error {
	if t.Tracer == nil {
		return nil
	}
	var errs []error
	note := func(err error, path, format string, args ...any) {
		if err == nil && path != "" {
			_, err = fmt.Fprintf(log, format, args...)
		}
		errs = append(errs, err)
	}
	if t.exporter != nil {
		note(t.exporter.Close(), t.Live, "live snapshots written to %s\n", t.Live)
	}
	if t.Metrics != "" {
		data, err := MetricsJSON(t.Tracer)
		if err == nil {
			err = os.WriteFile(t.Metrics, data, 0o644)
		}
		note(err, t.Metrics, "metrics JSON written to %s\n", t.Metrics)
	}
	note(t.Tracer.Close(), t.Trace, "trace written to %s (%s format)\n", t.Trace, t.TraceFormat)
	return errors.Join(errs...)
}
