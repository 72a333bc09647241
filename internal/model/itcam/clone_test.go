package itcam

// clone returns a deep copy of the model. FoldInUsers shares the frozen
// slabs instead; the fold-in tests build their independent batch
// reference from this copy.
func (m *Model) clone() *Model {
	out := *m
	out.theta = append([]float64(nil), m.theta...)
	out.phi = append([]float64(nil), m.phi...)
	out.thetaT = append([]float64(nil), m.thetaT...)
	out.lambda = append([]float64(nil), m.lambda...)
	return &out
}
