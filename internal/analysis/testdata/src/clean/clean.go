// Fixture with none of the suite's trigger conventions: no TxnNames
// registry, no guard annotations, not a seeded package. All four
// analyzers must report nothing.
package clean

import (
	"sync"
	"time"
)

type counter struct {
	mu sync.Mutex
	n  int
}

func (c *counter) bump() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

// unguarded has no annotation, so lockcheck has nothing to say.
func (c *counter) unguarded() int { return c.n }

// now is fine here: this package is not registered as seeded.
func now() time.Time { return time.Now() }

func histogram(m map[string]int) int {
	t := 0
	for _, v := range m {
		t += v
	}
	return t
}
