package core

// Approaches lists every runnable approach.
func Approaches() []Approach {
	out := make([]Approach, len(approachSpecs))
	for i, s := range approachSpecs {
		out[i] = s.name
	}
	return out
}
