package ml

// NewSVM creates a zero-initialized binary linear support vector machine.
func NewSVM(dims int) *Linear { return newLinear(hinge, dims, 2) }
