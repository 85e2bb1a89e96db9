package opt

import (
	"fmt"
	"sort"
	"strings"
)

// PlanDOT renders a reuse plan as a Graphviz DOT graph: computed nodes are
// solid (trainable ones bold red), loaded nodes are filled blue, pruned
// nodes are dashed gray. Useful for inspecting optimizer decisions:
//
//	nautilus-plan -workload FTR-2 -dot | dot -Tsvg > plan.svg
func PlanDOT(p *Plan) string {
	m := p.Model()
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", m.Name)
	b.WriteString("  rankdir=BT;\n  node [shape=box, fontsize=10];\n")

	nodes := m.Reachable()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Name < nodes[j].Name })
	for _, n := range nodes {
		attrs := []string{fmt.Sprintf("label=%q", n.Name+"\\n"+n.Layer.Type())}
		switch p.Action(n) {
		case Loaded:
			attrs = append(attrs, `style=filled`, `fillcolor="#cfe2ff"`)
		case Pruned:
			attrs = append(attrs, `style=dashed`, `color=gray`, `fontcolor=gray`)
		case Computed:
			if !n.Frozen() {
				attrs = append(attrs, `penwidth=2`, `color="#c0392b"`)
			}
		}
		fmt.Fprintf(&b, "  %q [%s];\n", n.Name, strings.Join(attrs, ", "))
	}
	for _, n := range nodes {
		if p.Action(n) == Pruned {
			continue
		}
		for _, par := range n.Parents {
			style := ""
			if p.Action(par) == Pruned {
				style = " [style=dashed, color=gray]"
			}
			fmt.Fprintf(&b, "  %q -> %q%s;\n", par.Name, n.Name, style)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
