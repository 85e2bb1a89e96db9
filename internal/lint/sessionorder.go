package lint

import "go/types"

const corePkgPath = "nautilus/internal/core"

// SessionOrderAnalyzer checks the event ordering of core.Planner sessions.
// The planner API is a protocol: a fresh planner has no plan until the
// first Replan; evolution events (GrowData, AddCandidates, RemoveCandidate)
// stage work that the next Replan folds in; and a Replan whose error is
// discarded leaves the session in an unknown state — the staged events may
// or may not have landed, and the cached Plan may be stale or nil. Reading
// Plan at the wrong point silently trains against the wrong workload; the
// multi-tenant planner service multiplexes many concurrent sessions, where
// that mistake is invisible until the wrong model wins selection.
//
// Declared against the typestate engine as a four-state protocol:
//
//	planned --GrowData/Add/Remove--> staged --Replan--> planned
//	fresh (NewPlanner) stays fresh under staging; Replan promotes it
//	failed (Replan with discarded error) absorbs all events until a
//	        properly handled Replan leaves it
//
// Findings: Plan read while fresh (nil plan), while staged (stale plan),
// or while failed; and any evolution event fired while failed. Paths merge
// pessimistically (worst state wins), so a Plan read that is stale on any
// path through the session is flagged. Planner-typed parameters are
// assumed planned: the caller owns the session's history. Test files are
// skipped.
var SessionOrderAnalyzer = &Analyzer{
	Name:         "sessionorder",
	Doc:          "flags core.Planner sessions reading Plan before Replan folds staged events, or evolving after a failed Replan",
	SummaryAware: true,
	Run:          func(p *Pass) { runTypestate(p, sessionOrderSpec) },
}

var failedMutationMsg = map[string]string{
	"failed": "planner %s is mutated after a Replan whose error was discarded; handle the error (or Replan again) first",
}

var sessionOrderSpec = &typestateSpec{
	// Only the exported constructor starts a session; accessors returning an
	// existing planner (ModelSelection.Planner()) are not origins — the
	// session history belongs to the owner.
	origin:    constructorOrigin("NewPlanner", corePkgPath, "Planner"),
	errResult: true,
	valueType: func(t types.Type) bool { return namedType(t, corePkgPath, "Planner") },
	// Rank order is best→worst for the pessimistic path merge: a session
	// that is planned on one path and failed on another must be treated as
	// failed at the join.
	states:     []string{"planned", "staged", "fresh", "failed"},
	start:      "fresh",
	paramStart: "planned",
	events: []eventSpec{
		{method: "GrowData", to: "staged", keepIn: []string{"fresh", "failed"}, badIn: failedMutationMsg},
		{method: "AddCandidates", to: "staged", keepIn: []string{"fresh", "failed"}, badIn: failedMutationMsg},
		{method: "RemoveCandidate", to: "staged", keepIn: []string{"fresh", "failed"}, badIn: failedMutationMsg},
		{method: "Replan", to: "planned", errDiscardedTo: "failed"},
		{method: "Plan", badIn: map[string]string{
			"fresh":  "planner %s's Plan is read before any Replan; the plan is nil until the first Replan succeeds",
			"staged": "planner %s has staged evolution events; call Replan before reading Plan",
			"failed": "planner %s's Plan is read after a Replan whose error was discarded; handle the error first",
		}},
	},
}
