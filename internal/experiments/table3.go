package experiments

import (
	"io"

	"nautilus/internal/workloads"
)

// Table3Row summarizes one workload's configuration (the reproduction of
// Table 3) plus its theoretical speedup (Equation 11).
type Table3Row struct {
	Workload   string
	Approach   workloads.Approach
	Variants   int
	BatchSizes []int
	LRs        []float64
	Epochs     []int
	NumModels  int
	// TheoreticalSpeedup is Equation 11 at paper scale.
	TheoreticalSpeedup float64
}

// Table3 reproduces Table 3 with the Equation 11 column appended.
func Table3() ([]Table3Row, error) {
	var rows []Table3Row
	for _, s := range workloads.All() {
		inst, err := PaperInstance(s)
		if err != nil {
			return nil, err
		}
		variants := len(s.Strategies)
		if variants == 0 {
			variants = len(s.Depths)
		}
		rows = append(rows, Table3Row{
			Workload:           s.Name,
			Approach:           s.Approach,
			Variants:           variants,
			BatchSizes:         s.BatchSizes,
			LRs:                s.LRs,
			Epochs:             s.Epochs,
			NumModels:          s.NumModels(),
			TheoreticalSpeedup: TheoreticalSpeedup(inst),
		})
	}
	return rows, nil
}

// PrintTable3 renders Table 3 rows.
func PrintTable3(w io.Writer, rows []Table3Row) error {
	p := &printer{w: w}
	p.printf("Table 3: model selection configurations (+ Equation 11 theoretical speedup)\n")
	p.printf("%-8s %-18s %9s %12s %22s %9s %8s %10s\n",
		"workload", "approach", "variants", "batch sizes", "learning rates", "epochs", "#models", "eq11")
	for _, r := range rows {
		p.printf("%-8s %-18s %9d %12v %22v %9v %8d %9.1fX\n",
			r.Workload, r.Approach, r.Variants, r.BatchSizes, r.LRs, r.Epochs, r.NumModels, r.TheoreticalSpeedup)
	}
	return p.err
}
