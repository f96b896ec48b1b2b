package engine

// VariantCount reports how many bind-aware plan variants p's statement
// holds (0 when it has no variant set).
func VariantCount(p *Prepared) int {
	vs := p.variants
	if vs == nil {
		return 0
	}
	vs.mu.RLock()
	defer vs.mu.RUnlock()
	return len(vs.m)
}

// HasVariantSet reports whether p's statement takes the plan-variant path
// at all.
func HasVariantSet(p *Prepared) bool { return p.variants != nil }
