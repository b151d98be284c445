// Package archtest holds the architecture rules: the "one way to do each
// thing" shape DESIGN.md describes — one evaluation of formula (1) per node
// per cycle, Algorithm 1 naming nodes by position, one chassis with one
// leader — checked on the parsed source of every Go file in the tree,
// bench/ included (parsed as files, never imported).
//
// TestArchitecture runs one subtest per rule; TestRulesBite shows each rule
// refuses the change that motivated it. Run both with
//
//	go test ./internal/archtest
package archtest

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unicode"
)

// root is the repository root, relative to this package.
const root = "../.."

// file is one parsed Go file of the tree.
type file struct {
	path    string // slash-separated, relative to root
	test    bool   // a _test.go file
	ast     *ast.File
	fset    *token.FileSet
	imports map[string]string // local name → import path
}

// tree is the source the rules read, by path.
type tree map[string]*file

var (
	parseOnce sync.Once
	parsed    tree
	parseErr  error
)

// load parses the tree once for every test of the package.
func load(t *testing.T) tree {
	t.Helper()
	parseOnce.Do(func() { parsed, parseErr = parseTree() })
	if parseErr != nil {
		t.Fatal(parseErr)
	}
	return parsed
}

// parseTree parses every .go file under root but hidden directories,
// testdata and this package (whose table names what the rules forbid).
func parseTree() (tree, error) {
	t := tree{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || rel == "internal/archtest") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		f, err := parseFile(rel, src)
		t[rel] = f
		return err
	})
	return t, err
}

func parseFile(rel string, src []byte) (*file, error) {
	fset := token.NewFileSet()
	af, err := parser.ParseFile(fset, rel, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	f := &file{path: rel, test: strings.HasSuffix(rel, "_test.go"), ast: af, fset: fset, imports: map[string]string{}}
	for _, im := range af.Imports {
		p, _ := strconv.Unquote(im.Path.Value)
		name := path.Base(p)
		if im.Name != nil {
			name = im.Name.Name
		}
		f.imports[name] = p
	}
	return f, nil
}

// site names n for a failure message: path:line and its first source line.
func (f *file) site(n ast.Node) string {
	var b bytes.Buffer
	printer.Fprint(&b, f.fset, n)
	code, _, _ := strings.Cut(b.String(), "\n")
	return fmt.Sprintf("%s:%d: %s", f.path, f.fset.Position(n.Pos()).Line, code)
}

// Which files a scope reads, as each grep did.
const (
	nonTest = iota
	withTests
	onlyTests
)

// scope selects the files a rule reads: those under any of in ("" is the
// whole tree, a directory ends in "/", anything else is one file) and
// under none of except.
type scope struct {
	in, except []string
	tests      int
}

// files is the scope's files in path order, or a problem per entry of in
// that names no file: a rule whose files are gone fails, not passes.
func (s scope) files(t tree) ([]*file, []string) {
	var out []*file
	var missing []string
	for _, in := range s.in {
		n := len(out)
		for p, f := range t {
			if within(p, in) && !slices.ContainsFunc(s.except, func(e string) bool { return within(p, e) }) &&
				(s.tests == withTests || (s.tests == onlyTests) == f.test) {
				out = append(out, f)
			}
		}
		if len(out) == n {
			missing = append(missing, fmt.Sprintf("%q holds no file this rule reads: its anchor is gone", in))
		}
	}
	slices.SortFunc(out, func(a, b *file) int { return strings.Compare(a.path, b.path) })
	return out, missing
}

// within reports whether path p is under prefix: a directory ending in "/",
// "" for the whole tree, or else one file.
func within(p, prefix string) bool {
	if prefix == "" || strings.HasSuffix(prefix, "/") {
		return strings.HasPrefix(p, prefix)
	}
	return p == prefix
}

// everywhere is the whole tree, bench/ included, as `grep -r .` read it.
func everywhere(tests int, except ...string) scope {
	return scope{in: []string{""}, except: except, tests: tests}
}

func under(tests int, in ...string) scope { return scope{in: in, tests: tests} }

// match reports whether n, inside the top-level declaration d of f, is a
// site of what a rule looks for.
type match func(f *file, d ast.Decl, n ast.Node) bool

// sites is every node of fs that m matches.
func (m match) sites(fs []*file) []string {
	var out []string
	for _, f := range fs {
		for _, d := range f.ast.Decls {
			out = append(out, m.in(f, d)...)
		}
	}
	return out
}

// in is every node of f's top-level declaration d that m matches.
func (m match) in(f *file, d ast.Decl) []string {
	var out []string
	ast.Inspect(d, func(n ast.Node) bool {
		if n != nil && m(f, d, n) {
			out = append(out, f.site(n))
		}
		return true
	})
	return out
}

func anyOf(ms ...match) match {
	return func(f *file, d ast.Decl, n ast.Node) bool {
		return slices.ContainsFunc(ms, func(m match) bool { return m(f, d, n) })
	}
}

// outside narrows m to the sites outside the declaration named fn.
func outside(fn string, m match) match {
	return func(f *file, d ast.Decl, n ast.Node) bool { return declName(d) != fn && m(f, d, n) }
}

func inside(fn string, m match) match {
	return func(f *file, d ast.Decl, n ast.Node) bool { return declName(d) == fn && m(f, d, n) }
}

// declName is a function as its declaration reads — "LoadOf", or
// "(s *Server) sweep", receiver name and all, as the awk rules matched it —
// and "" for any other declaration.
func declName(d ast.Decl) string {
	fd, ok := d.(*ast.FuncDecl)
	if !ok {
		return ""
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	r := fd.Recv.List[0]
	var recv bytes.Buffer
	if len(r.Names) > 0 {
		recv.WriteString(r.Names[0].Name + " ")
	}
	printer.Fprint(&recv, token.NewFileSet(), r.Type)
	return "(" + recv.String() + ") " + fd.Name.Name
}

// declared reports whether fs declare the function named fn (see declName).
func declared(fs []*file, fn string) bool {
	for _, f := range fs {
		if slices.ContainsFunc(f.ast.Decls, func(d ast.Decl) bool { return declName(d) == fn }) {
			return true
		}
	}
	return false
}

// pkgs maps the qualifiers the rules name to their import paths, so that an
// aliased import is read as the package it imports.
var pkgs = map[string]string{
	"time": "time", "flag": "flag", "signal": "os/signal", "json": "encoding/json",
	"wire": "repro/internal/wire", "replica": "repro/internal/replica", "daemon": "repro/internal/daemon",
	"fedd": "repro/internal/fedd", "manager": "repro/internal/manager", "node": "repro/internal/node",
}

// text is e as source.
func text(e ast.Expr) string {
	var b bytes.Buffer
	printer.Fprint(&b, token.NewFileSet(), e)
	return b.String()
}

// lastName is the name e ends in — x for x, z for x.y.z — and "" for
// anything else (a call, an index).
func lastName(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

// qualifies reports whether x, the X of some x.Sel, is q: a local name of
// q's package (an aliased import included), or any expression whose name
// ends in q, as the unanchored greps read it (`curve\.At\(` matched
// s.curve.At too). An empty q is any x.
func (f *file) qualifies(x ast.Expr, q string) bool {
	if q == "" || strings.HasSuffix(lastName(x), q) {
		return true
	}
	id, ok := x.(*ast.Ident)
	return ok && pkgs[q] != "" && f.imports[id.Name] == pkgs[q]
}

// ref matches q.name, for any of names, called or not.
func ref(q string, names ...string) match {
	return func(f *file, _ ast.Decl, n ast.Node) bool {
		s, ok := n.(*ast.SelectorExpr)
		return ok && slices.Contains(names, s.Sel.Name) && f.qualifies(s.X, q)
	}
}

// call matches a call of q.name, for any of names.
func call(q string, names ...string) match {
	return func(f *file, _ ast.Decl, n ast.Node) bool {
		c, ok := n.(*ast.CallExpr)
		if !ok {
			return false
		}
		s, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr)
		return ok && slices.Contains(names, s.Sel.Name) && f.qualifies(s.X, q)
	}
}

// callArgs narrows m to calls with at least n arguments.
func callArgs(n int, m match) match {
	return func(f *file, d ast.Decl, x ast.Node) bool {
		c, ok := x.(*ast.CallExpr)
		return ok && len(c.Args) >= n && m(f, d, x)
	}
}

// pkgCall matches a call of the package function path.name, for any of
// names: counted exactly, through the file's import of path.
func pkgCall(path string, names ...string) match {
	return func(f *file, _ ast.Decl, n ast.Node) bool {
		c, ok := n.(*ast.CallExpr)
		if !ok {
			return false
		}
		s, ok := c.Fun.(*ast.SelectorExpr)
		if !ok || !slices.Contains(names, s.Sel.Name) {
			return false
		}
		id, ok := s.X.(*ast.Ident)
		return ok && f.imports[id.Name] == path
	}
}

// callee matches what `name\(` matched: a call of, a function declared as,
// or an interface method named anything ending in name, taking args
// arguments (any number when args < 0).
func callee(name string, args int) match {
	arity := func(n int) bool { return args < 0 || n == args }
	return func(_ *file, _ ast.Decl, n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			return strings.HasSuffix(lastName(n.Fun), name) && arity(len(n.Args))
		case *ast.FuncDecl:
			return strings.HasSuffix(n.Name.Name, name) && arity(n.Type.Params.NumFields())
		case *ast.Field:
			ft, ok := n.Type.(*ast.FuncType)
			return ok && arity(ft.Params.NumFields()) &&
				slices.ContainsFunc(n.Names, func(id *ast.Ident) bool { return strings.HasSuffix(id.Name, name) })
		}
		return false
	}
}

// mention matches an identifier or a string literal containing any of
// names: everywhere the grep found them but comments.
func mention(names ...string) match {
	has := func(s string) bool {
		return slices.ContainsFunc(names, func(name string) bool { return strings.Contains(s, name) })
	}
	return func(_ *file, _ ast.Decl, n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			return has(n.Name)
		case *ast.BasicLit:
			s, err := strconv.Unquote(n.Value)
			return n.Kind == token.STRING && err == nil && has(s)
		}
		return false
	}
}

// method matches a method declared on recv (pointer or not) whose name
// starts with any of prefixes.
func method(recv string, prefixes ...string) match {
	return func(_ *file, _ ast.Decl, n ast.Node) bool {
		fd, ok := n.(*ast.FuncDecl)
		if !ok || fd.Recv == nil || len(fd.Recv.List) == 0 || strings.TrimPrefix(text(fd.Recv.List[0].Type), "*") != recv {
			return false
		}
		return slices.ContainsFunc(prefixes, func(p string) bool { return strings.HasPrefix(fd.Name.Name, p) })
	}
}

// goStmt matches a go statement.
func goStmt(_ *file, _ ast.Decl, n ast.Node) bool {
	_, ok := n.(*ast.GoStmt)
	return ok
}

// flagNamed matches a flag registration, flag.Kind("name", …) or
// flag.KindVar(&v, "name", …), of any of names.
func flagNamed(names ...string) match {
	return func(f *file, _ ast.Decl, n ast.Node) bool {
		c, ok := n.(*ast.CallExpr)
		if !ok {
			return false
		}
		s, ok := c.Fun.(*ast.SelectorExpr)
		if !ok || !f.qualifies(s.X, "flag") || strings.ContainsFunc(s.Sel.Name, func(r rune) bool { return !unicode.IsLetter(r) }) {
			return false
		}
		for _, a := range c.Args[:min(2, len(c.Args))] {
			if lit, ok := a.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if v, _ := strconv.Unquote(lit.Value); slices.Contains(names, v) {
					return true
				}
			}
		}
		return false
	}
}

// binary matches x op y where x's source ends in left and y's starts with
// right (`[eE]poch *\+ *1` read epoch+1, s.epoch + 10 and a*epoch + 1).
func binary(op token.Token, left []string, right string) match {
	return func(_ *file, _ ast.Decl, n ast.Node) bool {
		b, ok := n.(*ast.BinaryExpr)
		if !ok || b.Op != op || !strings.HasPrefix(text(b.Y), right) {
			return false
		}
		x := text(b.X)
		return slices.ContainsFunc(left, func(l string) bool { return strings.HasSuffix(x, l) })
	}
}

// A check reads a rule's files and returns its problems, none when the
// files keep the rule.
type check func(fs []*file) []string

func forbid(m match) check { return m.sites }

func atMost(n int, m match) check {
	return func(fs []*file) []string {
		if s := m.sites(fs); len(s) > n {
			return append([]string{fmt.Sprintf("%d sites, at most %d allowed:", len(s), n)}, s...)
		}
		return nil
	}
}

func exactly(n int, m match) check {
	return func(fs []*file) []string {
		if s := m.sites(fs); len(s) != n {
			return append([]string{fmt.Sprintf("%d sites, want %d:", len(s), n)}, s...)
		}
		return nil
	}
}

// atLeastLines fails unless m's sites span n lines or more, counted as the
// grep counted them, one per line.
func atLeastLines(n int, m match) check {
	return func(fs []*file) []string {
		s := m.sites(fs)
		lines := map[string]bool{}
		for _, site := range s {
			at, _, _ := strings.Cut(site, ": ")
			lines[at] = true
		}
		if len(lines) < n {
			return append([]string{fmt.Sprintf("%d lines, want at least %d:", len(lines), n)}, s...)
		}
		return nil
	}
}

// all joins checks.
func all(cs ...check) check {
	return func(fs []*file) []string {
		var out []string
		for _, c := range cs {
			out = append(out, c(fs)...)
		}
		return out
	}
}

// anchored fails unless fs declare fn, then runs c.
func anchored(fn string, c check) check {
	return func(fs []*file) []string {
		if !declared(fs, fn) {
			return []string{fn + " is gone: the rule anchored on it would pass vacuously"}
		}
		return c(fs)
	}
}

// A rule is one architecture guard: the files it reads, what it refuses,
// the message it fails with, the DESIGN.md section it protects, and the
// changes that must make it fail (TestRulesBite).
type rule struct {
	name   string
	design string
	msg    string
	scope  scope
	check  check
	bites  []mutant
	tally  match // a ratchet's count, logged under -v
}

func (r rule) run(t tree) []string {
	fs, missing := r.scope.files(t)
	if missing != nil {
		return missing
	}
	return r.check(fs)
}

// A mutant is one change to the tree: a file added (src, with no old), a
// file edited (old replaced by src, old occurring exactly once) or a file
// dropped.
type mutant struct {
	path, old, src string
	drop           bool
}

func add(path, src string) mutant       { return mutant{path: path, src: src} }
func edit(path, old, src string) mutant { return mutant{path: path, old: old, src: src} }
func drop(path string) mutant           { return mutant{path: path, drop: true} }

// evaluation is a per-node evaluation of formula (1).
var evaluation = anyOf(call("Model", "Estimate"), call("builder", "Eval"), call("Builder", "Eval"),
	call("manager", "Sense"), call("curve", "At", "Load"))

const (
	sweep   = "(s *Server) sweep"
	sensed  = "(s *Server) sensed"
	shards  = "(s *Server) forEachShard"
	mgrd    = "internal/managerd/"
	mgrdGo  = mgrd + "fixture.go"
	chassis = "Daemon chassis (`internal/daemon`)"
	onePass = "One pass and one evaluation per cycle, on a bounded worker pool"
	records = "One record per node, sharded: an index over dense storage"
)

var rules = []rule{
	{
		name:   "tier-core-reads-no-clock",
		design: "Federation cores: the seam without a clock or a socket",
		msg:    "a federation core reads the clock: each event takes its now from its shell (Grantor, Governor), which reads it once",
		scope:  under(nonTest, "internal/tier/core.go"),
		check:  forbid(call("time", "Now", "Since", "Until", "NewTicker", "Tick", "After", "AfterFunc", "NewTimer", "Sleep")),
		bites: []mutant{
			edit("internal/tier/core.go", "\tcs.lastSeen = now\n\tcs.PowerW", "\tcs.lastSeen = time.Now()\n\tcs.PowerW"),
			drop("internal/tier/core.go"),
		},
	},
	{
		name:   "experiment-one-runner",
		design: "Extension E31 — one runner for every figure and study",
		msg:    "a second seed loop or worker pool reappeared in internal/experiment: a study lists its cells and Scale.run runs them on every seed",
		scope:  under(nonTest, "internal/experiment/"),
		check: all(
			atMost(1, func(_ *file, _ ast.Decl, n ast.Node) bool {
				r, ok := n.(*ast.RangeStmt)
				return ok && (strings.HasPrefix(text(r.X), "sc.Seeds") || lastName(r.X) == "Seeds")
			}),
			atMost(1, func(_ *file, _ ast.Decl, n ast.Node) bool {
				c, ok := n.(*ast.CallExpr)
				if !ok || lastName(c.Fun) != "make" || len(c.Args) == 0 {
					return false
				}
				ch, ok := c.Args[0].(*ast.ChanType)
				if !ok {
					return false
				}
				st, ok := ch.Value.(*ast.StructType)
				return ok && st.Fields.NumFields() == 0
			}),
		),
		bites: []mutant{
			add("internal/experiment/fixture.go", "package experiment\n\nfunc (sc Scale) again() {\n\tfor _, s := range sc.Seeds {\n\t\t_ = s\n\t}\n}\n"),
			add("internal/experiment/fixture.go", "package experiment\n\nvar pool = make(chan struct{}, 4)\n"),
		},
	},
	{
		name:   "wire-newconn-in-link-and-accept",
		design: "Sessions (`internal/wire/link.go`)",
		msg:    "wire.NewConn called outside internal/wire (the link), internal/daemon (accept) and bench/: open sessions with wire.Open or wire.Link",
		scope:  everywhere(nonTest, "internal/daemon/", "bench/"),
		check:  forbid(call("wire", "NewConn")),
		bites: []mutant{
			add("internal/agentd/fixture.go", "package agentd\n\nvar c = wire.NewConn(nil)\n"),
			add("internal/agentd/fixture.go", "package agentd\n\nimport w \"repro/internal/wire\"\n\nvar c = w.NewConn(nil)\n"),
		},
	},
	{
		name:   "one-rotation",
		design: "One dial rule",
		msg:    "an HA client dials TCP itself: reach a leader that moves through wire.Group.Rotate, the one rotation (daemon.QueryStatus, which probes one named daemon, excepted)",
		scope:  everywhere(nonTest, "internal/wire/", "internal/daemon/status.go"),
		check:  forbid(call("wire", "DialTCP")),
		bites: []mutant{
			add("internal/agentd/fixture.go", "package agentd\n\nfunc dial() { wire.DialTCP(nil, \"a\") }\n"),
			add("internal/agentd/fixture.go", "package agentd\n\nfunc dial() {\n\twire.\n\t\tDialTCP(nil, \"a\")\n}\n"),
		},
	},
	{
		name:   "backoff-in-wire",
		design: "Sessions (`internal/wire/link.go`)",
		msg:    "a doubling backoff loop reappeared outside internal/wire: pace redials with wire.Backoff",
		scope:  everywhere(nonTest, "internal/wire/", "bench/"),
		check:  forbid(doubling),
		bites: []mutant{
			add("internal/agentd/fixture.go", "package agentd\n\nfunc redial(backoff time.Duration) {\n\tbackoff = min(backoff*2, time.Second)\n}\n"),
			add("internal/agentd/fixture.go", "package agentd\n\nfunc redial(s *state) {\n\ts.backoffDelay *= 2\n}\n"),
		},
	},
	{
		name:   "agent-goroutines",
		design: "A connection is one goroutine at each end",
		msg:    "agentd starts a goroutine beside the dead-man watchdog and the active agent's writer: a session reads on the goroutine that opened it, and a passive one starts nothing",
		scope:  under(nonTest, "internal/agentd/agentd.go"),
		check:  all(forbid(mention("readDone")), exactly(1, goStmt)),
		bites: []mutant{
			edit("internal/agentd/agentd.go", "\tgo func() {\n\t\tdefer close(done)", "\tgo fn()\n\tgo func() {\n\t\tdefer close(done)"),
			edit("internal/agentd/agentd.go", "\tgo func() {\n\t\tdefer close(done)", "\treadDone := done\n\tgo func() {\n\t\tdefer close(readDone)"),
			drop("internal/agentd/agentd.go"),
		},
	},
	{
		name:   "hello-outside-receive-loop",
		design: "A connection is one goroutine at each end",
		msg:    "managerd answers the hello (Confirm) in the function that holds the receive loop: the JSON reply would grow the stack the connection keeps for life; the handshake runs in serveConn, on the routing goroutine",
		scope:  under(nonTest, mgrd),
		check: anchored("(s *Server) serveConn", func(fs []*file) []string {
			var out []string
			for _, f := range fs {
				for _, d := range f.ast.Decls {
					if call("", "Confirm").in(f, d) != nil && call("", "Next").in(f, d) != nil {
						out = append(out, f.site(d))
					}
				}
			}
			if inside("(s *Server) serveConn", call("", "Confirm")).sites(fs) == nil {
				out = append(out, "serveConn no longer answers the hello: the rule would pass vacuously")
			}
			return out
		}),
		bites: []mutant{
			add(mgrdGo, "package managerd\n\nfunc (s *Server) both(c *wire.Conn) {\n\tc.Confirm(0, nil)\n\tfor c.Next(nil, nil) == nil {\n\t}\n}\n"),
			edit("internal/managerd/managerd.go", "\tif conn.Confirm(codec, reply) != nil {", "\tif conn.Confirmed(codec, reply) != nil {"),
			edit("internal/managerd/managerd.go", "func (s *Server) serveConn(", "func (s *Server) serve("),
		},
	},
	{
		name:   "one-shard-sweep",
		design: onePass,
		msg:    "forEachShard has more than one call site: a cycle sweeps the shards once",
		scope:  under(nonTest, mgrd),
		check:  anchored(shards, exactly(1, call("", "forEachShard"))),
		bites: []mutant{
			add(mgrdGo, "package managerd\n\nfunc (s *Server) again() { s.forEachShard(nil) }\n"),
			edit("internal/managerd/managerd.go", "func (s *Server) forEachShard(", "func (s *Server) eachShard("),
		},
	},
	{
		name:   "managerd-goroutines",
		design: onePass,
		msg:    "managerd starts a goroutine outside the sweep's pool (forEachShard), a cycle's writers (writeQueue.push) and a backed-up link's sender (ensureSender): a command goes through deliver, written through or handed to the node's one sender",
		scope:  under(nonTest, mgrd),
		check: forbid(func(f *file, d ast.Decl, n ast.Node) bool {
			return goStmt(f, d, n) && !slices.Contains([]string{shards, "(s *Server) ensureSender", "(q *writeQueue) push"}, declName(d))
		}),
		bites: []mutant{
			add(mgrdGo, "package managerd\n\nfunc (s *Server) spawn(ac *agentConn) {\n\tgo ac.sender()\n}\n"),
		},
	},
	{
		name:   "sensed-closes-gaps",
		design: onePass,
		msg:    "sensed appends the parts' states into s.snap.Nodes again: the sweep evaluates each candidate into its shard's region of the snapshot and sensed only closes the gaps (one concatenation, for a shard that spilled)",
		scope:  under(nonTest, mgrd),
		check: anchored(sensed, all(
			forbid(inside(sensed, func(_ *file, _ ast.Decl, n ast.Node) bool {
				c, ok := n.(*ast.CallExpr)
				return ok && lastName(c.Fun) == "append" && len(c.Args) > 0 && strings.HasPrefix(text(c.Args[0]), "s.snap.Nodes")
			})),
			atMost(1, inside(sensed, func(_ *file, _ ast.Decl, n ast.Node) bool {
				c, ok := n.(*ast.CallExpr)
				return ok && c.Ellipsis.IsValid() && strings.HasSuffix(text(c.Args[len(c.Args)-1]), "states")
			})),
		)),
		bites: []mutant{
			edit("internal/managerd/managerd.go", "nodes = append(nodes, parts[i].states...)", "s.snap.Nodes = append(s.snap.Nodes, parts[i].states...)"),
			edit("internal/managerd/managerd.go", "func (s *Server) sensed(", "func (s *Server) sense("),
		},
	},
	{
		name:   "parts-built-locally",
		design: onePass,
		msg:    "a sweep worker writes its shard's part in place: neighbouring parts share cache lines across workers, so build the part in a local copy and store it once",
		scope:  under(nonTest, mgrd),
		check: forbid(func(_ *file, _ ast.Decl, n ast.Node) bool {
			u, ok := n.(*ast.UnaryExpr)
			if !ok || u.Op != token.AND {
				return false
			}
			// &parts[i], &parts[i].f, &parts[i:j]: the base indexed is parts.
			for x := u.X; ; {
				switch e := ast.Unparen(x).(type) {
				case *ast.IndexExpr:
					x = e.X
				case *ast.SliceExpr:
					x = e.X
				case *ast.SelectorExpr:
					x = e.X
					continue
				default:
					return false
				}
				if strings.HasSuffix(text(x), "parts") {
					return true
				}
			}
		}),
		bites: []mutant{
			add(mgrdGo, "package managerd\n\nfunc part(parts []cyclePart, i int) *int {\n\treturn &parts[i].stale\n}\n"),
		},
	},
	{
		name:   "walks-stream-chunks",
		design: records,
		msg:    "a walk ranges the id -> record index: shard.nodes is for lookups, walks stream shard.chunks in registration order",
		scope:  under(nonTest, mgrd),
		check: forbid(func(_ *file, _ ast.Decl, n ast.Node) bool {
			r, ok := n.(*ast.RangeStmt)
			if !ok {
				return false
			}
			s, ok := ast.Unparen(r.X).(*ast.SelectorExpr)
			return ok && s.Sel.Name == "nodes"
		}),
		bites: []mutant{
			add(mgrdGo, "package managerd\n\nfunc (sh *shard) walk() {\n\tfor range sh.nodes {\n\t}\n}\n"),
		},
	},
	{
		name:   "agentconn-holds-no-reading",
		design: records,
		msg:    "agentConn holds a reading again: what a node last reported lives on its nodeRec, where the sweep reads it",
		scope:  under(nonTest, mgrd),
		check: func(fs []*file) []string {
			var out []string
			found := false
			for _, f := range fs {
				ast.Inspect(f.ast, func(n ast.Node) bool {
					ts, ok := n.(*ast.TypeSpec)
					if !ok || ts.Name.Name != "agentConn" {
						return true
					}
					found = true
					ast.Inspect(ts.Type, func(n ast.Node) bool {
						if fl, ok := n.(*ast.Field); ok && slices.ContainsFunc(fl.Names, func(id *ast.Ident) bool {
							return slices.Contains([]string{"last", "lastAt", "lastEpoch", "seen"}, id.Name)
						}) {
							out = append(out, f.site(fl))
						}
						return true
					})
					return false
				})
			}
			if !found {
				out = append(out, "type agentConn is gone: the rule anchored on it would pass vacuously")
			}
			return out
		},
		bites: []mutant{
			edit("internal/managerd/managerd.go", "type agentConn struct {\n", "type agentConn struct {\n\tlastAt time.Time\n"),
			edit("internal/managerd/managerd.go", "type agentConn struct {\n", "type agentConn struct {\n\tprev, last wire.Envelope\n"),
			edit("internal/managerd/managerd.go", "type agentConn struct {", "type conn struct {"),
		},
	},
	{
		name:   "records-made-in-add",
		design: records,
		msg:    "a node record is constructed outside shard.add: records live in the shard's chunks and are made in one place",
		scope:  under(nonTest, mgrd),
		check: all(
			exactly(1, nodeRecLit),
			exactly(1, inside("(sh *shard) add", nodeRecLit)),
		),
		bites: []mutant{
			add(mgrdGo, "package managerd\n\nvar spare = []nodeRec{}\n"),
			edit("internal/managerd/store.go", "func (sh *shard) add(", "func (sh *shard) insert("),
		},
	},
	{
		name:   "no-builder-build",
		design: onePass,
		msg:    "managerd calls Builder.Build: a cycle evaluates each node once, in Server.sweep",
		scope:  under(nonTest, mgrd),
		check:  forbid(call("", "Build")),
		bites: []mutant{
			add(mgrdGo, "package managerd\n\nfunc (s *Server) rebuild(b *manager.Builder) { b.Build(nil) }\n"),
		},
	},
	{
		name:   "one-evaluation-in-sweep",
		design: onePass,
		msg:    "a per-node evaluation (Model.Estimate, Builder.Eval, manager.Sense, curve.At/Load) appeared outside Server.sweep: one evaluation per node per cycle",
		scope:  under(nonTest, mgrd),
		check: anchored(sweep, all(
			forbid(outside(sweep, evaluation)),
			// The anchor's body: sweep evaluates through the compiled curve,
			// so a rename of the evaluation calls cannot leave the rule
			// above reading nothing.
			func(fs []*file) []string {
				if p := atLeastLines(4, inside(sweep, anyOf(call("manager", "Sense"), call("curve", "At", "Load"))))(fs); p != nil {
					return append([]string{"Server.sweep no longer evaluates through the compiled curve: the rule above has gone vacuous"}, p...)
				}
				return nil
			},
		)),
		bites: []mutant{
			add(mgrdGo, "package managerd\n\nimport mgr \"repro/internal/manager\"\n\nfunc (s *Server) twice() { mgr.Sense(nil, s.curve, 0, nil, nil) }\n"),
			edit("internal/managerd/managerd.go", "manager.Sense(ns, s.curve, load, last, prev)", "sense(ns, s.curve, load, last, prev)"),
			edit("internal/managerd/managerd.go", "func (s *Server) sweep(", "func (s *Server) walk("),
		},
	},
	{
		name:   "hot-path-reads-the-curve",
		design: "Formula (1) is tabulated per level.",
		msg:    "the sensing hot path re-derives formula (1): internal/manager and internal/managerd read the compiled power.Curve only",
		scope:  under(nonTest, mgrd, "internal/manager/"),
		check:  forbid(anyOf(callee("DynMax", -1), call("Idle", "At"), call("Model", "Estimate"))),
		bites: []mutant{
			add("internal/manager/fixture.go", "package manager\n\nfunc peak(m power.Model) float64 { return m.CPU.DynMax(0) }\n"),
		},
	},
	{
		name:   "one-load-derivation",
		design: onePass,
		msg:    "the Load derivation (MemUsed/MemTotal, NICBytes/(τ·BW)) must exist in exactly one non-test file: power.LoadOf",
		scope:  everywhere(nonTest),
		check: func(fs []*file) []string {
			m := match(func(_ *file, _ ast.Decl, n ast.Node) bool {
				b, ok := n.(*ast.BinaryExpr)
				if !ok || b.Op != token.QUO || !strings.HasPrefix(text(b.Y), "float64(") {
					return false
				}
				x, ok := ast.Unparen(b.X).(*ast.CallExpr)
				return ok && len(x.Args) > 0 && strings.HasSuffix(text(x.Args[len(x.Args)-1]), "MemUsed")
			})
			files := map[string]bool{}
			s := m.sites(fs)
			for _, site := range s {
				files[strings.SplitN(site, ":", 2)[0]] = true
			}
			if len(files) != 1 || inside("LoadOf", m).sites(fs) == nil {
				return append([]string{fmt.Sprintf("%d files derive Load, want 1, in power.LoadOf:", len(files))}, s...)
			}
			return nil
		},
		bites: []mutant{
			add("internal/node/fixture.go", "package node\n\nfunc busy(d procfs.Delta) float64 { return 1 - float64(d.MemUsed)/float64(d.MemTotal) }\n"),
			edit("internal/power/model.go", "f.Mem = float64(d.MemUsed) / float64(d.MemTotal)", "f.Mem = memFrac(d)"),
		},
	},
	{
		name:   "one-reconcile-grace",
		design: "Command acks, retries and reconciliation",
		msg:    "the reconcile grace (cs.sentCycle+2) must occur exactly once: one retry/reconcile switch",
		scope:  under(nonTest, mgrd),
		check:  exactly(1, binary(token.ADD, []string{"cs.sentCycle"}, "2")),
		bites: []mutant{
			add(mgrdGo, "package managerd\n\nfunc due(cs *cmdState, n int) bool { return n >= cs.sentCycle + 2 }\n"),
			edit("internal/managerd/managerd.go", "cycleN >= cs.sentCycle+2", "cycleN >= cs.sentCycle+3"),
		},
	},
	{
		name:   "daemon-glue-in-daemon",
		design: chassis,
		msg:    "daemon glue reappeared outside internal/daemon",
		scope:  under(withTests, mgrd, "internal/fedd/"),
		check:  forbid(method("Server", "acceptLoop", "renewLoop", "depose", "serveReplica", "binaryWanted")),
		bites: []mutant{
			add("internal/managerd/fixture.go", "package managerd\n\nfunc (s *Server) acceptLoop() {}\n"),
			add("internal/fedd/fixture_test.go", "package fedd\n\nfunc (srv Server) deposeAll() {}\n"),
		},
	},
	{
		name:   "one-claim-site",
		design: "One way to say leader.",
		msg:    "an epoch is picked, claimed or the lease written outside internal/daemon/daemon.go: daemon.New claims every epoch by Lease.Claim, one exclusive create per epoch, so a second claim site could lead an epoch already led; Start writes the lease, and the warm standby is daemon.WarmStandby",
		scope:  everywhere(nonTest, "internal/daemon/daemon.go", "bench/"),
		check: forbid(anyOf(
			ref("replica", "NewStandby", "Standby", "Promotion"),
			call("", "Promoted"),
			call("Lease", "Write"),
			func(f *file, d ast.Decl, n ast.Node) bool {
				c, ok := n.(*ast.CallExpr)
				return ok && call("", "Write")(f, d, n) && len(c.Args) > 0 &&
					strings.HasPrefix(strings.TrimPrefix(text(c.Args[0]), "&"), "replica.LeaseState")
			},
			call("", "Claim"),
			binary(token.ADD, []string{"epoch", "Epoch"}, "1"),
			func(_ *file, _ ast.Decl, n ast.Node) bool {
				s, ok := n.(*ast.IncDecStmt)
				return ok && s.Tok == token.INC && (strings.HasSuffix(text(s.X), "epoch") || strings.HasSuffix(text(s.X), "Epoch"))
			},
		)),
		bites: []mutant{
			add("internal/fedd/fixture.go", "package fedd\n\nfunc claim(l *replica.Lease) { l.Claim(1, \"x\") }\n"),
			add("internal/fedd/fixture.go", "package fedd\n\nfunc next(s *Server) uint64 { return s.Epoch() + s.epoch + 1 }\n"),
			add("internal/fedd/fixture.go", "package fedd\n\nimport r \"repro/internal/replica\"\n\nvar sb *r.Standby\n"),
		},
	},
	{
		name:   "journal-lifecycle-in-chassis",
		design: "Crash-recovery journal",
		msg:    "a journal is opened or compacted outside internal/daemon and internal/replica: the chassis opens it from HA.JournalPath (a standby's copy from StandbyConfig.JournalPath), compacts and closes it at Stop, and the store bounds its own log",
		scope:  everywhere(nonTest, "internal/daemon/", "internal/replica/", "bench/"),
		check: forbid(anyOf(call("replica", "Open"), func(f *file, d ast.Decl, n ast.Node) bool {
			return call("", "Compact")(f, d, n) && !call("json", "Compact")(f, d, n)
		})),
		bites: []mutant{
			add(mgrdGo, "package managerd\n\nfunc (s *Server) trim() { _ = s.Journal().Compact() }\n"),
		},
	},
	{
		name:   "status-filled-by-chassis",
		design: "Status derived, not copied.",
		msg:    "a status reply is filled by hand: the chassis fills every field from the registry (daemon.Chassis.Status), and a daemon only publishes the instruments",
		scope:  everywhere(nonTest, "internal/daemon/", "internal/wire/", "bench/"),
		check: forbid(func(f *file, _ ast.Decl, n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok || lit.Type == nil {
				return false
			}
			s, ok := lit.Type.(*ast.SelectorExpr)
			// An empty literal split over lines counted too, as the grep's
			// `\{$` did.
			return ok && s.Sel.Name == "StatusReply" && f.qualifies(s.X, "wire") &&
				(len(lit.Elts) > 0 || f.fset.Position(lit.Lbrace).Line != f.fset.Position(lit.Rbrace).Line)
		}),
		bites: []mutant{
			add("internal/fedd/fixture.go", "package fedd\n\nfunc (s *Server) reply() *wire.StatusReply {\n\treturn &wire.StatusReply{Agents: 1}\n}\n"),
		},
	},
	{
		name:   "one-status-client",
		design: "Status derived, not copied.",
		msg:    "a second status client reappeared outside internal/daemon: probe a manager or a coordinator with daemon.QueryStatus",
		scope:  everywhere(nonTest, "internal/daemon/", "bench/"),
		check: func(fs []*file) []string {
			// The one client's own name, daemon.QueryStatus, is exempt.
			probe := map[ast.Node]bool{}
			for _, f := range fs {
				ast.Inspect(f.ast, func(n ast.Node) bool {
					if s, ok := n.(*ast.SelectorExpr); ok && s.Sel.Name == "QueryStatus" && f.qualifies(s.X, "daemon") {
						probe[s.Sel] = true
					}
					return true
				})
			}
			return match(func(f *file, d ast.Decl, n ast.Node) bool {
				return !probe[n] && mention("QueryStatus")(f, d, n)
			}).sites(fs)
		},
		bites: []mutant{
			add("cmd/powctl/fixture.go", "package main\n\nfunc QueryStatusOver(addr string) {}\n"),
		},
	},
	{
		name:   "one-rollup",
		design: "`tier.Grantor`",
		msg:    "a second roll-up of a grantor's children reappeared: Grantor.Cycle rolls the fleet up once, in its walk, and publishes it",
		scope:  under(nonTest, "internal/tier/"),
		check:  forbid(callee("Aggregate", 0)),
		bites: []mutant{
			add("internal/tier/fixture.go", "package tier\n\nfunc (g *Grantor) Aggregate() float64 { return 0 }\n"),
		},
	},
	{
		name:   "one-daemon-main",
		design: "The process half.",
		msg:    "powmgrd or powcoordd waits for signals or boots its standby itself: daemon.Run does both for either role",
		scope:  under(withTests, "cmd/powmgrd/", "cmd/powcoordd/"),
		check: forbid(anyOf(ref("signal", "Notify"), call("daemon", "StartStandby"), func(_ *file, _ ast.Decl, n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			return ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "runStandby")
		})),
		bites: []mutant{
			add("cmd/powcoordd/fixture.go", "package main\n\nimport sig \"os/signal\"\n\nfunc wait() { sig.Notify(nil) }\n"),
			add("cmd/powmgrd/fixture.go", "package main\n\nfunc runStandby() {}\n"),
		},
	},
	{
		name:   "shared-flags-in-daemon",
		design: "The process half.",
		msg:    "a flag the two chassis daemons share is registered outside internal/daemon (powagentd's own -metrics-addr excepted): register it once, in daemon.Flags",
		scope:  everywhere(nonTest, "internal/daemon/", "bench/"),
		check: forbid(func(f *file, d ast.Decl, n ast.Node) bool {
			shared := []string{"journal", "lease", "lease-every", "standby-of", "lease-miss-budget", "budget-grace", "failsafe-pl", "failsafe-ph"}
			if f.path != "cmd/powagentd/main.go" {
				shared = append(shared, "metrics-addr")
			}
			return flagNamed(shared...)(f, d, n)
		}),
		bites: []mutant{
			add("cmd/powmgrd/fixture.go", "package main\n\nimport fl \"flag\"\n\nvar every = fl.Duration(\"lease-every\", 0, \"\")\n"),
			add("cmd/powmgrd/fixture.go", "package main\n\nfunc reg(p *string) { flag.StringVar(p, \"journal\", \"\", \"\") }\n"),
		},
	},
	{
		name:   "cycle-history-in-core",
		design: "Staged cycle timeline",
		msg:    "CycleHistory is back on a daemon: the daemons keep obs's default ring, and only core.Config sizes it",
		scope:  everywhere(nonTest, "internal/core/", "internal/obs/", "bench/"),
		check:  forbid(mention("CycleHistory")),
		bites: []mutant{
			add(mgrdGo, "package managerd\n\ntype ring struct{ CycleHistory int }\n"),
		},
	},
	{
		name:   "one-codec",
		design: "Wire protocol: one codec, binary after a JSON hello",
		msg:    "a second codec path reappeared: sessions settle on binary after a JSON hello, with nothing to pin",
		scope:  everywhere(nonTest, "bench/"),
		check: forbid(anyOf(
			mention("WireCodec", "AgentCodec", "QueryCodec", "BinaryConns", "binary_conns", "json_conns", "errNoBinary"),
			flagNamed("codec"),
			callArgs(2, call("", "Offer")),
			callArgs(2, call("wire", "Choose")),
		)),
		bites: []mutant{
			add(mgrdGo, "package managerd\n\nfunc (s *Server) tally() { s.Obs().Gauge(\"binary_conns\").Set(1) }\n"),
			add(mgrdGo, "package managerd\n\nfunc pick(env *wire.Envelope) wire.Codec {\n\treturn wire.Choose(env,\n\t\twire.CodecJSON)\n}\n"),
		},
	},
	{
		name:   "select-by-position",
		design: "Selection by position",
		msg:    "an ID-keyed index of the snapshot's node states reappeared: JobState.Nodes and Policy.Select deal in positions in Snapshot.Nodes",
		scope:  under(nonTest, "internal/policy/", "internal/manager/"),
		check: forbid(anyOf(
			func(f *file, _ ast.Decl, n ast.Node) bool {
				m, ok := n.(*ast.MapType)
				if !ok || !strings.Contains(text(m.Value), "NodeState") {
					return false
				}
				k, ok := m.Key.(*ast.SelectorExpr)
				return ok && k.Sel.Name == "ID" && f.qualifies(k.X, "node")
			},
			callee("nodeIndex", -1),
			mention("buildIdx"),
		)),
		bites: []mutant{
			add("internal/policy/fixture.go", "package policy\n\nfunc index(s Snapshot) map[node.ID]NodeState { return nil }\n"),
			add("internal/manager/fixture.go", "package manager\n\nimport n \"repro/internal/node\"\n\nvar byID map[n.ID]*policy.NodeState\n"),
		},
	},
	{
		name:   "one-tree-rig",
		design: "Tree harness.",
		msg:    "fedd.New called outside internal/fedd, internal/daemon, internal/harness/tree.go, cmd/ and bench/",
		scope:  everywhere(withTests, "internal/fedd/", "internal/daemon/", "internal/harness/tree.go", "cmd/", "bench/"),
		check:  forbid(call("fedd", "New")),
		bites: []mutant{
			add("internal/harness/fixture_test.go", "package harness\n\nfunc boot() { fedd.New(fedd.Config{}) }\n"),
		},
	},

	removedNames([]string{"EstimateAtLevel"}, everywhere(withTests), "Formula (1) is tabulated per level.",
		"EstimateAtLevel is back: it was a pure alias of Model.Estimate",
		// `EstimateAtLevel\(`: TestEstimateAtLevelPrediction is not it.
		callee("EstimateAtLevel", -1)),
	removedNames([]string{"advanceAddr", "addrIdx"}, everywhere(withTests), "One dial rule",
		"a private rotation cursor is back: wire.Group.Rotate is the one way a client walks an HA group", nil),
	removedNames([]string{"updateHealth", "quarantinedIn", "maintainCommands"}, under(nonTest, mgrd), onePass,
		"a per-cycle pass over the node table reappeared beside Server.sweep", nil),
	removedNames([]string{"JournalEvery", "journal-every"}, everywhere(withTests), "Crash-recovery journal",
		"a journal snapshot cadence is back: the store compacts its own log once it holds logMax entries", nil),
	removedNames([]string{"BeginSenseEpoch", "extEpoch", "lastEpoch"}, everywhere(nonTest, "bench/"), "Virtual-time bridge.",
		"the external sense epoch is back: StartExternalCycle takes the readings that arrived at or after its cut", nil),
	removedNames([]string{"StartFederation", "StartThreeTier"}, everywhere(withTests), "Tree harness.",
		"a per-depth tree rig reappeared beside harness.StartTree", nil),

	ratchet("test-sleeps", everywhere(onlyTests), pkgCall("time", "Sleep"), 61, "time.Sleep(1)"),
	ratchet("host-clock", under(nonTest, "internal/managerd/", "internal/agentd/", "internal/tier/",
		"internal/replica/", "internal/fedd/", "internal/daemon/", "internal/wire/"), hostClock, 30, "time.Now()"),
	ratchet("tier-host-clock", under(nonTest, "internal/tier/"), hostClock, 9, "time.Now()"),
}

// nodeRecLit is what `nodeRec{` matched: a composite literal of a nodeRec,
// or of a slice, array or map of them.
func nodeRecLit(_ *file, _ ast.Decl, n ast.Node) bool {
	lit, ok := n.(*ast.CompositeLit)
	return ok && lit.Type != nil && strings.HasSuffix(text(lit.Type), "nodeRec")
}

// doubling is a backoff doubled by hand: backoff *= 2 (or <<= 1), or an
// assignment to a backoff of an expression holding 2 × a backoff.
func doubling(_ *file, _ ast.Decl, n ast.Node) bool {
	s, ok := n.(*ast.AssignStmt)
	if !ok || len(s.Lhs) != 1 || len(s.Rhs) != 1 || !backoffy(s.Lhs[0]) {
		return false
	}
	switch s.Tok {
	case token.MUL_ASSIGN:
		return text(s.Rhs[0]) == "2"
	case token.SHL_ASSIGN:
		return text(s.Rhs[0]) == "1"
	case token.ASSIGN, token.DEFINE:
		found := false
		ast.Inspect(s.Rhs[0], func(n ast.Node) bool {
			if b, ok := n.(*ast.BinaryExpr); ok && b.Op == token.MUL &&
				(text(b.X) == "2" && backoffy(b.Y) || backoffy(b.X) && strings.HasPrefix(text(b.Y), "2")) {
				found = true
			}
			return !found
		})
		return found
	}
	return false
}

func backoffy(e ast.Expr) bool {
	s := text(e)
	return strings.Contains(s, "backoff") || strings.Contains(s, "Backoff")
}

// removedNames is a row of the removed-names subtest: names a
// simplification deleted, refused wherever their grep looked — in an
// identifier or a string (a flag or metric spelling), comments excepted —
// or, given m, only where m matches. Its bites declare each name in a new
// file of the scope (a string, for a name no identifier can spell).
func removedNames(names []string, s scope, design, msg string, m match) rule {
	if m == nil {
		m = mention(names...)
	}
	r := rule{name: "removed-names/" + names[0], design: design, msg: msg, scope: s, check: forbid(m)}
	for _, name := range names {
		src := fmt.Sprintf("package p\n\nfunc %s() {}\n", name)
		if !token.IsIdentifier(name) {
			src = fmt.Sprintf("package p\n\nvar _ = %q\n", name)
		}
		r.bites = append(r.bites, add(fixturePath(s), src))
	}
	return r
}

// fixturePath is a new file inside s: in its first directory, or in a
// package of its own for the whole tree.
func fixturePath(s scope) string {
	if s.in[0] == "" {
		return "internal/fixture/fixture.go"
	}
	return s.in[0] + "fixture.go"
}

// ratchet caps a count ROADMAP item 1 tracks at its value when the rule was
// written: lower limit when the count drops. TestArchitecture logs the
// count under -v; the bite is one site more, in a new file holding call.
func ratchet(name string, s scope, m match, limit int, call string) rule {
	at := fixturePath(s)
	if s.tests == onlyTests {
		at = strings.TrimSuffix(at, ".go") + "_test.go"
	}
	return rule{
		name: "ratchet/" + name, scope: s, tally: m,
		msg:   fmt.Sprintf("%s rose above %d: remove one before adding one", name, limit),
		check: atMost(limit, m),
		bites: []mutant{add(at, "package p\n\nimport \"time\"\n\nfunc f() { "+call+" }\n")},
	}
}

var hostClock = pkgCall("time", "Now", "NewTicker", "After", "NewTimer", "AfterFunc")

func report(t *testing.T, r rule, problems []string) {
	t.Helper()
	if len(problems) == 0 {
		return
	}
	protects := ""
	if r.design != "" {
		protects = fmt.Sprintf("\n(DESIGN.md: %s)", r.design)
	}
	t.Errorf("%s\n\t%s%s", r.msg, strings.Join(problems, "\n\t"), protects)
}

func TestArchitecture(t *testing.T) {
	tr := load(t)
	for _, r := range rules {
		t.Run(r.name, func(t *testing.T) {
			if r.tally != nil {
				fs, _ := r.scope.files(tr)
				t.Logf("%d sites", len(r.tally.sites(fs)))
			}
			report(t, r, r.run(tr))
		})
	}
}

// apply returns t with m made, or an error when m no longer fits the tree.
func (t tree) apply(m mutant) (tree, error) {
	out := make(tree, len(t))
	for p, f := range t {
		out[p] = f
	}
	old, ok := t[m.path]
	switch {
	case m.drop:
		if !ok {
			return nil, fmt.Errorf("no %s to drop", m.path)
		}
		delete(out, m.path)
		return out, nil
	case m.old == "":
		if ok {
			return nil, fmt.Errorf("%s exists", m.path)
		}
		f, err := parseFile(m.path, []byte(m.src))
		out[m.path] = f
		return out, err
	}
	if !ok {
		return nil, fmt.Errorf("no %s to edit", m.path)
	}
	src, err := os.ReadFile(filepath.Join(root, old.path))
	if err != nil {
		return nil, err
	}
	if n := strings.Count(string(src), m.old); n != 1 {
		return nil, fmt.Errorf("%s holds %q %d times, want once", m.path, m.old, n)
	}
	f, err := parseFile(m.path, []byte(strings.Replace(string(src), m.old, m.src, 1)))
	out[m.path] = f
	return out, err
}

// TestRulesBite shows each rule refuses the change that motivated it: every
// mutant in its row — a violating file added, the code edited, or the
// anchor it reads renamed or deleted — must make it fail, and the DESIGN.md
// section it names must exist.
func TestRulesBite(t *testing.T) {
	tr := load(t)
	design, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		if len(r.bites) == 0 {
			t.Errorf("%s has no mutant that shows it bites", r.name)
		}
		if r.design != "" && !bytes.Contains(design, []byte(r.design)) {
			t.Errorf("%s names DESIGN.md section %q, which is not there", r.name, r.design)
		}
		for _, m := range r.bites {
			mt, err := tr.apply(m)
			if err != nil {
				t.Errorf("%s: mutant no longer applies: %v", r.name, err)
				continue
			}
			if r.run(mt) == nil {
				t.Errorf("%s passes a mutant it must refuse: %+v", r.name, m)
			}
		}
	}
}
