package cla

// GroupKinds reports the chosen layout of every group (for diagnostics).
func (m *Matrix) GroupKinds() []string {
	out := make([]string, len(m.groups))
	for i, g := range m.groups {
		out[i] = g.kind.String()
	}
	return out
}
