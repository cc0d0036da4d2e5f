package analysis

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/types"
	"reflect"
	"sort"
)

// This file is the facts half of the framework: the mechanism by which
// an analyzer's per-function conclusions in one package become inputs
// when analyzing its importers. It mirrors the Fact machinery of
// golang.org/x/tools/go/analysis on top of the stdlib-only framework:
// an analyzer exports facts about package-level objects while analyzing
// the defining package, and imports them — across package and even
// process boundaries — while analyzing a dependent package.
//
// Facts travel two ways:
//
//   - In-process: the standalone driver (cmd/peelvet, analysistest,
//     TestPeelvetRepoClean) analyzes packages in dependency order — "go
//     list -deps" guarantees dependencies precede dependents — threading
//     one FactStore through the whole run.
//   - Across processes: under "go vet -vettool=peelvet", cmd/go runs the
//     tool once per package and hands it the serialized fact files
//     (".vetx") of already-analyzed dependencies via the vet config's
//     PackageVetx map; the tool writes its own package's facts to
//     VetxOutput, which cmd/go caches alongside build artifacts — so
//     fact flow is exactly as cache-correct as compilation itself.
//
// Because the type-checker universe differs between the run that defines
// an object (source) and the run that imports it (export data), facts
// are keyed by (package path, object key) strings rather than by
// types.Object identity; see ObjectKey.

// A Fact is a serializable datum an analyzer attaches to a package-level
// object. Concrete fact types must be pointers to JSON-marshalable
// structs and must be registered with RegisterFact before use.
type Fact interface {
	// AFact is a marker method tying the type to this interface.
	AFact()
}

// factRegistry maps a fact type's name to its concrete (pointer) type so
// serialized facts can be decoded.
var factRegistry = map[string]reflect.Type{}

// RegisterFact makes a fact type decodable; call it from an init
// function in the file declaring the type. Panics if two distinct types
// share a name (a programmer error caught at process start).
func RegisterFact(f Fact) {
	t := reflect.TypeOf(f)
	name := factTypeName(t)
	if prev, ok := factRegistry[name]; ok && prev != t {
		panic(fmt.Sprintf("analysis: fact type name %q registered twice", name))
	}
	factRegistry[name] = t
}

// factTypeName names a fact's concrete type, e.g. "*analysis.Deterministic".
func factTypeName(t reflect.Type) string { return t.String() }

// ObjectKey names a package-level object within its package: "Name" for
// functions, types, and variables, and "Recv.Name" for methods (pointer
// receivers stripped). The empty string means the object cannot carry
// facts (local variables, imported package names, struct fields).
func ObjectKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	switch obj := obj.(type) {
	case *types.Func:
		sig, ok := obj.Type().(*types.Signature)
		if !ok {
			return ""
		}
		if recv := sig.Recv(); recv != nil {
			t := recv.Type()
			if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
				t = ptr.Elem()
			}
			named, ok := types.Unalias(t).(*types.Named)
			if !ok {
				return "" // method on an unnamed type (interface literal)
			}
			return named.Obj().Name() + "." + obj.Name()
		}
		return obj.Name()
	case *types.TypeName, *types.Var, *types.Const:
		if obj.Parent() != obj.Pkg().Scope() {
			return "" // not package-level
		}
		return obj.Name()
	}
	return ""
}

// A factKey locates one fact: which object, which fact type.
type factKey struct {
	object   string // ObjectKey within the package
	factType reflect.Type
}

// A FactStore holds decoded facts for every package seen in one
// analysis run, plus the set of packages actually analyzed — the
// distinction detflow and hotalloc use to separate "analyzed and proven
// clean" from "never looked at" (stdlib, out-of-run packages).
// The zero value is not usable; call NewFactStore.
type FactStore struct {
	pkgs     map[string]map[factKey]Fact
	analyzed map[string]bool
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{pkgs: map[string]map[factKey]Fact{}, analyzed: map[string]bool{}}
}

// MarkAnalyzed records that pkg's source was analyzed in this run (or a
// prior cached one), so an absent fact about its objects is a verdict,
// not ignorance.
func (s *FactStore) MarkAnalyzed(path string) { s.analyzed[path] = true }

// unmarkAnalyzed undoes MarkAnalyzed, keeping path's facts.
func (s *FactStore) unmarkAnalyzed(path string) { delete(s.analyzed, path) }

// Analyzed reports whether pkg was analyzed; see MarkAnalyzed.
func (s *FactStore) Analyzed(path string) bool { return s.analyzed[path] }

// put stores fact for (path, object).
func (s *FactStore) put(path, object string, fact Fact) {
	m := s.pkgs[path]
	if m == nil {
		m = map[factKey]Fact{}
		s.pkgs[path] = m
	}
	m[factKey{object, reflect.TypeOf(fact)}] = fact
}

// get copies the stored fact for (path, object, type of out) into out
// and reports whether one existed.
func (s *FactStore) get(path, object string, out Fact) bool {
	fact, ok := s.pkgs[path][factKey{object, reflect.TypeOf(out)}]
	if !ok {
		return false
	}
	reflect.ValueOf(out).Elem().Set(reflect.ValueOf(fact).Elem())
	return true
}

// factEntry is the serialized form of one fact, one JSON object per
// line in a .vetx file.
type factEntry struct {
	Object string          `json:"object"`
	Type   string          `json:"type"`
	Data   json.RawMessage `json:"data"`
}

// EncodePackage serializes path's facts deterministically (sorted by
// object then type) — the format written to the unitchecker's
// VetxOutput. A package with no facts encodes to an empty slice.
func (s *FactStore) EncodePackage(path string) ([]byte, error) {
	m := s.pkgs[path]
	entries := make([]factEntry, 0, len(m))
	for k, fact := range m {
		data, err := json.Marshal(fact)
		if err != nil {
			return nil, fmt.Errorf("encoding fact %s for %s.%s: %w", k.factType, path, k.object, err)
		}
		entries = append(entries, factEntry{Object: k.object, Type: factTypeName(k.factType), Data: data})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Object != entries[j].Object {
			return entries[i].Object < entries[j].Object
		}
		return entries[i].Type < entries[j].Type
	})
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, e := range entries {
		if err := enc.Encode(e); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// DecodePackage loads a .vetx blob as path's facts and marks the
// package analyzed. Facts of unregistered types are skipped (an older
// tool version wrote them); malformed lines are errors.
func (s *FactStore) DecodePackage(path string, data []byte) error {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var e factEntry
		if err := json.Unmarshal(line, &e); err != nil {
			return fmt.Errorf("decoding facts for %s: %w", path, err)
		}
		t, ok := factRegistry[e.Type]
		if !ok {
			continue
		}
		fact := reflect.New(t.Elem()).Interface().(Fact)
		if err := json.Unmarshal(e.Data, fact); err != nil {
			return fmt.Errorf("decoding %s fact for %s.%s: %w", e.Type, path, e.Object, err)
		}
		s.put(path, e.Object, fact)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("decoding facts for %s: %w", path, err)
	}
	s.MarkAnalyzed(path)
	return nil
}

// ExportObjectFact associates fact with obj, which must be a
// package-level object of the package under analysis. Facts about
// objects that cannot carry them (see ObjectKey) are silently dropped —
// analyzers need not special-case locals.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if p.facts == nil || obj == nil || obj.Pkg() == nil {
		return
	}
	key := ObjectKey(obj)
	if key == "" {
		return
	}
	p.facts.put(obj.Pkg().Path(), key, fact)
}

// ImportObjectFact copies into fact the fact of fact's type previously
// exported about obj — by this pass (same package) or by the analysis
// of obj's defining package — and reports whether one existed.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if p.facts == nil || obj == nil || obj.Pkg() == nil {
		return false
	}
	key := ObjectKey(obj)
	if key == "" {
		return false
	}
	return p.facts.get(obj.Pkg().Path(), key, fact)
}

// PackageAnalyzed reports whether path was analyzed earlier in this run
// (or its facts were imported from a cached .vetx): the guard that keeps
// fact-driven analyzers from inventing verdicts about packages nobody
// looked at.
func (p *Pass) PackageAnalyzed(path string) bool {
	return p.facts != nil && p.facts.Analyzed(path)
}
