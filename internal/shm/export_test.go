package shm

// LiveRegions reports how many regions are mapped and not yet released.
func LiveRegions() int64 { return live.Load() }
