package analyzers

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// loadModule type-checks every package of the module from the repo root,
// once per test binary: the suite test analyzes the packages, and the
// fixture test type-checks against their export data.
var loadModule = sync.OnceValues(func() (*module, error) {
	return load(filepath.Join("..", ".."), "./...")
})

// TestRepoIsClean runs every analyzer over the whole module and fails on any
// finding: the repo's own invariants, mechanically enforced on every go test
// run, not just in CI. A deliberate exception belongs next to the code as a
// //dimatch:allow line with a rationale, not in this test.
func TestRepoIsClean(t *testing.T) {
	m, err := loadModule()
	if err != nil {
		t.Fatalf("loading repo packages: %v", err)
	}
	if len(m.units) < 10 {
		t.Fatalf("loaded only %d packages; expected the whole module", len(m.units))
	}
	for _, u := range m.units {
		for _, f := range u.check(all...) {
			t.Errorf("%s: %s (%s)", f.pos, f.message, f.analyzer)
		}
	}
}

// TestPasses runs each pass over its fixture packages and checks the
// findings against the fixtures' // want comments.
func TestPasses(t *testing.T) {
	m, err := loadModule()
	if err != nil {
		t.Fatalf("loading repo packages: %v", err)
	}
	for _, a := range all {
		t.Run(a.name, func(t *testing.T) {
			if len(fixtures[a.name]) == 0 {
				t.Fatalf("no fixture for %s", a.name)
			}
			fset := token.NewFileSet()
			imp := fixtureImporter{checked: make(map[string]*types.Package), exports: exportImporter(fset, m.exports)}
			for _, fx := range fixtures[a.name] {
				f, err := parser.ParseFile(fset, fx.path+".go", fx.src, parser.ParseComments)
				if err != nil {
					t.Fatal(err)
				}
				u, err := typeCheck(fx.path, fset, []*ast.File{f}, imp)
				if err != nil {
					t.Fatal(err)
				}
				imp.checked[fx.path] = u.pkg
				checkWants(t, u, u.check(a))
			}
		})
	}
}

// fixtureImporter resolves an import to a fixture package checked earlier
// in the same test (wirekinduse imports wirefix), and any other path from
// the module's export data.
type fixtureImporter struct {
	checked map[string]*types.Package
	exports types.Importer
}

func (imp fixtureImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := imp.checked[path]; ok {
		return pkg, nil
	}
	return imp.exports.Import(path)
}

// wantRe matches one quoted regexp in a // want comment.
var wantRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

// checkWants fails the test unless the findings and the regexps of the
// unit's // want comments pair up one for one, each finding matching a
// want on its own line.
func checkWants(t *testing.T, u *unit, findings []finding) {
	t.Helper()
	type want struct {
		pos     token.Position
		re      *regexp.Regexp
		matched bool
	}
	var wants []*want
	for _, f := range u.files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				i := strings.Index(c.Text, "// want ")
				if i < 0 {
					continue
				}
				pos := u.fset.Position(c.Pos())
				for _, q := range wantRe.FindAllString(c.Text[i+len("// want "):], -1) {
					re, err := regexp.Compile(strings.ReplaceAll(q[1:len(q)-1], `\"`, `"`))
					if err != nil {
						t.Fatalf("%s: bad want pattern %s: %v", pos, q, err)
					}
					wants = append(wants, &want{pos: pos, re: re})
				}
			}
		}
	}
next:
	for _, f := range findings {
		for _, w := range wants {
			if !w.matched && w.pos.Filename == f.pos.Filename && w.pos.Line == f.pos.Line && w.re.MatchString(f.message) {
				w.matched = true
				continue next
			}
		}
		t.Errorf("%s: unexpected finding: %s", f.pos, f.message)
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s: no finding matched %q", w.pos, w.re)
		}
	}
}

// fixtures maps each pass to the packages its test type-checks and runs it
// over, in import order. A line where a finding is expected carries
//
//	bad() // want "regexp matching the message"
//
// with one quoted regexp per expected finding.
var fixtures = map[string][]struct{ path, src string }{
	"ctxflow": {
		{"ctxfix", `// Package ctxfix exercises the ctxflow rules: fresh contexts in library
// paths, the blessed nil-guard, and unused ctx parameters.
package ctxfix

import "context"

type station struct{}

func (s *station) query(ctx context.Context) error { return ctx.Err() }

// searchDetached mints its own context: the caller's cancellation is lost.
func searchDetached(s *station) error {
	return s.query(context.Background()) // want "context\.Background in a library path"
}

// searchDeferred parks cleanup on a TODO context: same severed lineage.
func searchDeferred(s *station) error {
	ctx := context.TODO() // want "context\.TODO in a library path"
	return s.query(ctx)
}

// decorative accepts a ctx it never reads.
func decorative(ctx context.Context, s *station) error { // want "ctx parameter ctx is never used"
	return s.query(context.TODO()) // want "context\.TODO in a library path"
}

// guarded is the conforming boundary shape: Background only as the nil
// default, then threaded everywhere.
func guarded(ctx context.Context, s *station) error {
	if ctx == nil {
		ctx = context.Background()
	}
	return s.query(ctx)
}

// threaded is the ordinary conforming shape.
func threaded(ctx context.Context, s *station) error {
	return s.query(ctx)
}

// anonymous explicitly discards the context with a blank name: allowed,
// the signature is honest about it.
func anonymous(_ context.Context, s *station) error {
	return s.query(context.TODO()) //dimatch:allow ctxflow — demo of the escape hatch
}
`},
	},
	"epochpin": {
		{"epochfix", `// Package epochfix is a miniature cluster for the epochpin fixture: a
// guarded epoch pointer touched with and without its mutex.
package epochfix

import "sync"

type epoch struct{ members []string }

type Cluster struct {
	mu     sync.Mutex
	ep     *epoch // dimatch:guardedby mu
	closed bool   // dimatch:guardedby mu
}

// Members reads live membership without the lock: the invariant epochpin
// exists to catch.
func (c *Cluster) Members() []string {
	return c.ep.members // want "field c\.ep is guarded by c\.mu"
}

// Sloppy writes a guarded field after releasing the lock.
func (c *Cluster) Sloppy() bool {
	c.mu.Lock()
	v := c.closed
	c.mu.Unlock()
	c.ep = nil // want "field c\.ep is guarded by c\.mu"
	return v
}

// Async touches a guarded field from a goroutine: the closure runs under
// its own lock discipline, so the deferred unlock outside does not cover it.
func (c *Cluster) Async() {
	c.mu.Lock()
	defer c.mu.Unlock()
	go func() {
		_ = c.ep // want "field c\.ep is guarded by c\.mu"
	}()
}

// Close is the conforming shape: deferred unlock covers the write.
func (c *Cluster) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
}

// Snapshot is the conforming early-unlock shape: the branch releases and
// returns, and the code after it still holds the lock.
func (c *Cluster) Snapshot() *epoch {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	ep := c.ep
	c.mu.Unlock()
	return ep
}

// installLocked follows the callers-hold-the-lock naming convention.
func (c *Cluster) installLocked(e *epoch) {
	c.ep = e
}

// New writes guarded fields of a value no other goroutine can see yet.
func New() *Cluster {
	c := &Cluster{}
	c.ep = &epoch{}
	c.installLocked(c.ep)
	return c
}

// cache guards a map with a read-write mutex: many readers, one writer.
type cache struct {
	mu      sync.RWMutex
	entries map[int]string // dimatch:guardedby mu
}

// put reads under the read half, which covers a read, then stores under it
// while another reader may be in the map.
func (c *cache) put(id int, s string) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.entries[id] != s {
		c.entries[id] = s // want "field c\.entries is written while only the read half of c\.mu is held"
	}
}
`},
	},
	"lockio": {
		{"lockiofix", `// Package lockiofix exercises the lockio rule with a miniature mux, link
// and cluster.
package lockiofix

import (
	"context"
	"sync"
)

type Message struct{ Kind uint8 }

// Link is the wire-link shape: Send may block on a full pipe.
type Link interface {
	Send(Message) error
	Recv() (Message, error)
	Close() error
}

type Mux struct{ link Link }

func (m *Mux) Roundtrip(ctx context.Context, msg Message) (Message, error) {
	if err := m.link.Send(msg); err != nil {
		return Message{}, err
	}
	return m.link.Recv()
}

func (m *Mux) Send(msg Message) error { return m.link.Send(msg) }

type cluster struct {
	mu  sync.Mutex
	mux *Mux
}

// searchHoldingLock roundtrips under the cluster mutex: the deadlock shape.
func (c *cluster) searchHoldingLock(ctx context.Context) (Message, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mux.Roundtrip(ctx, Message{}) // want "call to Mux\.Roundtrip while c\.mu is held"
}

// notifyHoldingLock does a fire-and-forget send under the mutex; Send
// serializes on the link and can block just as long.
func (c *cluster) notifyHoldingLock() error {
	c.mu.Lock()
	err := c.mux.Send(Message{}) // want "call to Mux\.Send while c\.mu is held"
	c.mu.Unlock()
	return err
}

// rawLinkHoldingLock blocks on the link interface directly.
func (c *cluster) rawLinkHoldingLock(l Link) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return l.Send(Message{}) // want "call to Link\.Send while c\.mu is held"
}

// searchPinned is the conforming shape: snapshot under the lock, roundtrip
// outside it.
func (c *cluster) searchPinned(ctx context.Context) (Message, error) {
	c.mu.Lock()
	mux := c.mux
	c.mu.Unlock()
	return mux.Roundtrip(ctx, Message{})
}

// closeUnderLock calls a non-blocking method under the lock: not a finding.
func (c *cluster) closeUnderLock(l Link) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return l.Close()
}

// sendSerialized shows the documented escape hatch for the one legitimate
// case (a mutex that exists to serialize the link itself).
func (c *cluster) sendSerialized() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mux.Send(Message{}) //dimatch:allow lockio — this mutex serializes the link
}
`},
	},
	"wirekind": {
		{"wirefix", `// Package wire is a miniature of the real wire package for analyzer tests:
// a Kind type and codec functions for the wirekinduse fixture to misuse.
package wire

type Kind uint8

const (
	KindA Kind = 1
	KindB Kind = 2
)

// DecodeThing mimics a payload decoder returning an error.
func DecodeThing(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, errEmpty
	}
	return int(b[0]), nil
}

// EncodeThing mimics an encoder whose only result is the error.
func EncodeThing(v int) error {
	if v < 0 {
		return errEmpty
	}
	return nil
}

// DecodeLen has no error result; discarding it is not a finding.
func DecodeLen(b []byte) int { return len(b) }

// DecodeAs mimics a generic decoder its callers instantiate explicitly.
func DecodeAs[T ~int](b []byte) (T, error) {
	v, err := DecodeThing(b)
	return T(v), err
}

type wireError string

func (e wireError) Error() string { return string(e) }

const errEmpty = wireError("empty")
`},
		{"wirekinduse", `// Package wirekinduse exercises the dispatch-switch and discarded-error
// rules from a package that consumes the wire fixture.
package wirekinduse

import "wirefix"

func dispatch(k wire.Kind) string {
	switch k { // want "switch over wire.Kind without a default"
	case wire.KindA:
		return "a"
	case wire.KindB:
		return "b"
	}
	return ""
}

// dispatchOK carries a default clause: the conforming counterexample.
func dispatchOK(k wire.Kind) string {
	switch k {
	case wire.KindA:
		return "a"
	default:
		return "?"
	}
}

func sloppy(b []byte) int {
	wire.DecodeThing(b)          // want "result of DecodeThing is discarded"
	v, _ := wire.DecodeThing(b)  // want "error result of DecodeThing is assigned to _"
	wire.EncodeThing(v)          // want "result of EncodeThing is discarded"
	wire.DecodeAs[int](b)        // want "result of DecodeAs is discarded"
	_, _ = wire.DecodeAs[int](b) // want "error result of DecodeAs is assigned to _"
	return v + wire.DecodeLen(b) // no error result: not a finding
}

// careful propagates the codec error: the conforming counterexample.
func careful(b []byte) (int, error) {
	return wire.DecodeThing(b)
}
`},
	},
}
