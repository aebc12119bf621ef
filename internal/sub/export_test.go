package sub

// NewRegistryWithQueue is NewRegistry with each stream's delta queue
// bounded at queueCap and its coalesce budget at maxCoalesce, for the
// tests that overflow them on purpose.
func NewRegistryWithQueue(src Source, queueCap, maxCoalesce int) *Registry {
	return newRegistry(src, queueCap, maxCoalesce)
}
