// Package api is the fixture's public tree: its functions need callers,
// its exported fields do not.
package api

// Config is the data model an embedder reads; its exported field stays
// though nothing in the module reads it.
type Config struct {
	Name string
}

// Default is called from the command.
func Default() Config { return Config{Name: "default"} }

// Orphan has no caller: reported.
func Orphan() {}
