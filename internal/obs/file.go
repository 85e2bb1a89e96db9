package obs

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// Telemetry is the commands' telemetry flag block and what it opens: the
// one declaration of -trace, -metrics, -listen and -live, the tracer they
// ask for, and the live exporter over it. Register the flags, parse, Open,
// hand Tracer to the run, Close.
type Telemetry struct {
	Trace, Metrics, Listen, Live string

	// Tracer is set by Open; nil when no flag asked for telemetry.
	Tracer   *Tracer
	exporter *Exporter
}

// RegisterFlags declares the telemetry flags on fs.
func (t *Telemetry) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&t.Trace, "trace", "", "write a Chrome trace-event span trace to this file (chrome://tracing, ui.perfetto.dev)")
	fs.StringVar(&t.Metrics, "metrics", "", "write the telemetry report (metrics, conformance, span stats; JSON) to this file at exit")
	fs.StringVar(&t.Listen, "listen", "", "serve the telemetry report over HTTP on this address (/metrics, /debug/pprof/)")
	fs.StringVar(&t.Live, "live", "", "append the telemetry report to this file every 2s and at exit (JSONL)")
}

// Open builds what the flags ask for and notes on log where to find it.
// -trace gets a tracer writing spans to that file as Chrome trace-event
// JSON; -metrics, -listen and -live alone — or force, for a caller that
// reads the tracer itself — get a sinkless one (registry, samples and
// conformance, no span output). -listen / -live start the exporter over it.
// With nothing asked for, Tracer stays nil: no instrumentation. On an error
// Open closes what it opened (a created trace file keeps a terminated
// envelope), removes nothing, and leaves Tracer nil.
func (t *Telemetry) Open(force bool, log io.Writer) (err error) {
	var tr *Tracer
	var exp *Exporter
	defer func() {
		if err == nil {
			t.Tracer, t.exporter = tr, exp
			return
		}
		if exp != nil {
			_ = exp.Close() // the error being returned wins
		}
		_ = tr.Close()
	}()
	switch {
	case t.Trace != "":
		f, cerr := os.Create(t.Trace)
		if cerr != nil {
			return fmt.Errorf("obs: create trace file: %w", cerr)
		}
		tr = New(NewChromeTraceSink(f))
	case force || t.Metrics != "" || t.Listen != "" || t.Live != "":
		tr = New(nil)
	}
	if t.Listen == "" && t.Live == "" {
		return nil
	}
	if exp, err = StartExporter(tr, ExporterConfig{SnapshotPath: t.Live, Listen: t.Listen}); err != nil {
		return err
	}
	if t.Listen != "" {
		_, err = fmt.Fprintf(log, "live telemetry on http://%s (/metrics /debug/pprof/)\n", exp.Addr())
	}
	return err
}

// Close stops the exporter (appending a last report), writes the -metrics
// file (the same report, indented) and flushes and closes the trace file,
// noting each artifact on log. It is a no-op when Open built nothing.
func (t *Telemetry) Close(log io.Writer) error {
	if t.Tracer == nil {
		return nil
	}
	var errs []error
	note := func(err error, path, what string) {
		if err == nil && path != "" {
			_, err = fmt.Fprintf(log, "%s written to %s\n", what, path)
		}
		errs = append(errs, err)
	}
	if t.exporter != nil {
		note(t.exporter.Close(), t.Live, "live reports")
	}
	if t.Metrics != "" {
		f, err := os.Create(t.Metrics)
		if err == nil {
			err = errors.Join(writeIndented(f, t.Tracer.Report()), f.Close())
		}
		note(err, t.Metrics, "telemetry report")
	}
	note(t.Tracer.Close(), t.Trace, "Chrome trace")
	return errors.Join(errs...)
}
