package verify

import (
	"errors"
	"fmt"
)

// Kind classifies plan-verification failures by the invariant family they
// violate, so callers can react programmatically (retry with a larger
// budget, drop an offending candidate, refuse an evolution event) instead
// of string-matching error text.
type Kind string

// Verification failure kinds.
const (
	// KindModel: the model graph itself is malformed — cyclic, shape-
	// inconsistent, or violating the materializable-frontier closure of
	// Definition 2.4.
	KindModel Kind = "model"
	// KindLegality: a reuse plan breaks Definition 4.5 — missing actions,
	// pruned inputs of computed nodes, loads outside V, and similar.
	KindLegality Kind = "legality"
	// KindCost: a reported cost or footprint disagrees with its recomputed
	// value (Equations 5 and 6).
	KindCost Kind = "cost"
	// KindFusion: a fused group breaks the fusion conditions — mixed batch
	// sizes or epoch counts, or non-materializable shared nodes
	// (Definition 4.3).
	KindFusion Kind = "fusion"
	// KindBudget: a plan exceeds B_disk or B_mem.
	KindBudget Kind = "budget"
	// KindPartition: the training plan is not a partition of the workload —
	// a candidate trained zero times or more than once, or missing a plan.
	KindPartition Kind = "partition"
)

// PlanError is the typed verification failure every check in this package
// returns. It travels through core.PlanWorkload and the evolution events of
// core.ModelSelection wrapped with %w, so callers recover it (and its Kind,
// Group, and Node context) via errors.As.
type PlanError struct {
	// Kind is the violated invariant family.
	Kind Kind
	// Model names the model whose graph or plan is at fault ("" if not
	// model-scoped).
	Model string
	// Group names the fusion group the failure occurred in ("" outside
	// group checks).
	Group string
	// Node names the offending graph node ("" if the failure is not
	// node-scoped).
	Node string
	// Err is the wrapped cause, when the failure surfaced while checking a
	// nested structure (a group's plan, a MatResult's per-model plan).
	Err error

	msg string
}

// Error implements error.
func (e *PlanError) Error() string { return e.msg }

// Unwrap exposes the wrapped cause for errors.Is/As chains.
func (e *PlanError) Unwrap() error { return e.Err }

// Fields renders the error's context as "kind=K group=G model=M node=N",
// leaving out empty fields: the line a CLI prints under a rejected plan.
func (e *PlanError) Fields() string {
	s := "kind=" + string(e.Kind)
	for _, f := range [...]struct{ key, val string }{{"group", e.Group}, {"model", e.Model}, {"node", e.Node}} {
		if f.val != "" {
			s += " " + f.key + "=" + f.val
		}
	}
	return s
}

// planErrf builds a PlanError with a formatted message. The message keeps
// the package's established "verify: ..." phrasing so logs and tests stay
// stable across the typed-error migration.
func planErrf(kind Kind, format string, args ...any) *PlanError {
	return &PlanError{Kind: kind, msg: fmt.Sprintf(format, args...)}
}

// withModel, withGroup, and withNode attach location context.
func (e *PlanError) withModel(name string) *PlanError { e.Model = name; return e }
func (e *PlanError) withGroup(name string) *PlanError { e.Group = name; return e }
func (e *PlanError) withNode(name string) *PlanError  { e.Node = name; return e }

// wrapGroup wraps a nested verification failure with the enclosing group's
// name, propagating the inner Kind (and Node/Model context) outward so
// errors.As on the outermost error still reports the root cause's kind.
func wrapGroup(group string, err error) error {
	out := &PlanError{Kind: KindLegality, Group: group, Err: err, msg: fmt.Sprintf("group(%s): %v", group, err)}
	var pe *PlanError
	if errors.As(err, &pe) {
		out.Kind = pe.Kind
		out.Model = pe.Model
		out.Node = pe.Node
	}
	return out
}
