package trace

// Cache is a placeholder for the retired trace cache. No shipped command or
// internal package reads one; the type and NewCache remain only so the
// benchmark's traced layer (perfbench/traced/tracelayer.go), which assigns
// harness.Runner.Traces, compiles. The benchmark change that retires that
// layer deletes this file.
type Cache struct{}

// NewCache returns an empty Cache. maxBytes is ignored.
func NewCache(maxBytes int64) *Cache { return &Cache{} }
