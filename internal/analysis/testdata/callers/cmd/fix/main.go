// Command fix uses the fixture's declarations from a main package, whose
// own declarations are never checked.
package main

import (
	"callersfix/internal/store"
	"callersfix/pkg/api"
)

func main() {
	c := store.NewCounters()
	c.Touch()
	*c.Addr() = 3
	_ = store.MakePair()
	_ = store.Total(store.Box{})
	_ = store.Group{}
	_ = api.Default()
}
