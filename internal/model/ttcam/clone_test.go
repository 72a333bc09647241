package ttcam

// clone returns a deep copy of the model. FoldInUsers shares the frozen
// slabs instead; the fold-in tests build their independent batch
// reference from this copy.
func (m *Model) clone() *Model {
	out := *m
	out.theta = append([]float64(nil), m.theta...)
	out.phi = append([]float64(nil), m.phi...)
	out.thetaTx = append([]float64(nil), m.thetaTx...)
	out.phiX = append([]float64(nil), m.phiX...)
	out.lambda = append([]float64(nil), m.lambda...)
	if m.background != nil {
		out.background = append([]float64(nil), m.background...)
	}
	return &out
}
