package cow

// residentPages reports the number of private page entries the index holds:
// one per distinct page content some store's private chunks reference.
func (ix *Index) residentPages() int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.pages.Live
}
