package device

// residentPages reports the number of pages the store holds: one per page
// number, however many of them share an interned entry.
func (s *MemStore) residentPages() int {
	n := 0
	for _, l := range s.dir {
		n += l.n
	}
	return n
}

// probe reports how many entries a write of the whole page data compares
// it with.
func (ps *Pages) probe(data []byte) int {
	_, n := ps.find(ps.keyOf(nil, 0, ps.size, data), nil, 0, ps.size, data)
	return n
}
