package graph

import (
	"fmt"
	"strings"
)

// Summary renders a layer table of the model — node, type, output shape,
// parameter count, trainability — with totals, in the style DL frameworks
// print. It panics if the model does not validate.
func (m *Model) Summary() string {
	shapes, err := m.Validate()
	if err != nil {
		panic(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Model: %s\n", m.Name)
	fmt.Fprintf(&b, "%-34s %-18s %-14s %12s %10s\n", "node (type)", "output shape", "parents", "params", "trainable")
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 92))
	for _, n := range m.Nodes() {
		var params, nodeTrainable int64
		for _, p := range n.Layer.Params() {
			params += int64(p.NumElems())
		}
		for _, p := range n.TrainableParams() {
			nodeTrainable += int64(p.NumElems())
		}

		parents := make([]string, len(n.Parents))
		for i, p := range n.Parents {
			parents[i] = p.Name
		}
		flag := "frozen"
		if nodeTrainable > 0 {
			flag = "yes"
			if nodeTrainable < params {
				flag = "partial"
			}
		} else if len(n.Layer.Params()) == 0 {
			flag = "-"
		}
		name := fmt.Sprintf("%s (%s)", n.Name, n.Layer.Type())
		if len(name) > 34 {
			name = name[:31] + "..."
		}
		par := strings.Join(parents, ",")
		if len(par) > 14 {
			par = par[:11] + "..."
		}
		fmt.Fprintf(&b, "%-34s %-18s %-14s %12d %10s\n", name, fmt.Sprint(shapes[n.Index()]), par, params, flag)
	}
	total, trainable := m.ParamCount() // shared parameters count once
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 92))
	fmt.Fprintf(&b, "total params: %d   trainable: %d (%.1f%%)\n",
		total, trainable, 100*float64(trainable)/float64(max64(total, 1)))
	return b.String()
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
