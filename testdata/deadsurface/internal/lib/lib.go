// Package lib plants one hit per rule, an allowlisted hit and non-hits.
package lib

type Config struct {
	Size  int    // written by the root package
	Depth int    // (b): nothing outside lib writes it
	Name  string `json:"name"` // tagged: not a hit
}

type state struct{ count, seen int } // count is (d): written, never read

func Used(c Config) int {
	s := state{count: 1}
	s.seen = c.Size + c.Depth + Helper()
	return s.seen
}

func Helper() int { return 1 } // (a): used only inside lib

func dead() int { return 2 } // (c)

func Spare() int { return 3 } // (c), allowlisted

type Visitor interface{ Visit() int }

type Impl struct{}

func (Impl) Visit() int { return 4 } // reached only through Visitor

func Walk(v Visitor) int { return v.Visit() }

func BenchOnly() int { return 5 } // used only by the sibling bench module

// Counts is returned by Tally.
type Counts struct {
	Hits   int // read only by a test file
	Misses int // (e): written, read by no file
}

func Tally() Counts { return Counts{Hits: 1, Misses: 2} }

// Snap is read only through reflection.
type Snap struct{ N int }

func Take() Snap { return Snap{N: 1} }

// Labeler is implemented by Impl, but no file calls Label: (f).
type Labeler interface{ Label() string }

func (Impl) Label() string { return "impl" }
