package forest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"selflearn/internal/ml/tree"
)

// MarshalJSON encodes the flat forest in the exact interchange format of
// Forest.MarshalJSON (preorder node arrays per tree), so checkpoints
// written from either representation load into either.
func (ff *FlatForest) MarshalJSON() ([]byte, error) {
	if len(ff.roots) == 0 {
		return nil, errors.New("forest: empty forest")
	}
	type nodeDTO struct {
		Leaf      bool    `json:"leaf"`
		Positive  bool    `json:"positive,omitempty"`
		Prob      float64 `json:"prob,omitempty"`
		Feature   int     `json:"feature,omitempty"`
		Threshold float64 `json:"threshold,omitempty"`
		Left      int     `json:"left,omitempty"`
		Right     int     `json:"right,omitempty"`
	}
	type treeDTO struct {
		NumFeatures int       `json:"num_features"`
		Nodes       []nodeDTO `json:"nodes"`
	}
	oob := ff.oob
	if math.IsNaN(oob) {
		oob = -1
	}
	dto := struct {
		Trees    []treeDTO `json:"trees"`
		OOBError float64   `json:"oob_error"`
	}{OOBError: oob}
	for t := range ff.roots {
		base := int(ff.roots[t])
		end := len(ff.nodes)
		if t+1 < len(ff.roots) {
			end = int(ff.roots[t+1])
		}
		td := treeDTO{NumFeatures: ff.nFeatures, Nodes: make([]nodeDTO, 0, end-base)}
		for i := base; i < end; i++ {
			n := ff.nodes[i]
			if n.Feature < 0 {
				td.Nodes = append(td.Nodes, nodeDTO{
					Leaf: true, Positive: n.Value >= 0.5, Prob: n.Value,
				})
				continue
			}
			td.Nodes = append(td.Nodes, nodeDTO{
				Feature:   int(n.Feature),
				Threshold: n.Value,
				Left:      i - base + 1,
				Right:     int(n.Right) - base,
			})
		}
		dto.Trees = append(dto.Trees, td)
	}
	return json.Marshal(dto)
}

// The field names of the checkpoint's three object levels, as the
// writers emit them.
var (
	forestFields = []string{"trees", "oob_error"}
	treeFields   = []string{"num_features", "nodes"}
	nodeFields   = []string{"leaf", "positive", "prob", "feature", "threshold", "left", "right"}
)

// maxSkipDepth bounds the nesting of an unknown value, so that skipping
// one cannot exhaust the stack, and so that what LoadFlat accepts stays
// far inside encoding/json's own limit of 10,000.
const maxSkipDepth = 1000

// LoadFlat reads a forest checkpoint (written by Forest.Save or
// FlatForest.MarshalJSON) straight into the flat representation. It
// makes one pass over the bytes without reflection, writes each node
// into the node table as it reads it, and then builds the int16
// companion as Flatten does.
//
// It accepts any whitespace, any key order and unknown keys (such as
// the store's "model_version"), whose values it checks for syntax and
// skips. Keys match exactly as the writers spell them, and numbers
// parse with strconv as encoding/json parses them, so a checkpoint
// loads bit-identical to Load(r).Flatten() (FuzzLoadFlatMatchesReference).
//
// It refuses what is not a forest stored in preorder: a null tree, a
// tree whose num_features differs from the first tree's, a split whose
// left child is not the next node or whose right child is not the node
// just after its left subtree, and a node that no link reaches. Every
// node is therefore reached exactly once, and the node table is never
// longer than the input. It also refuses keys that encoding/json would
// read by rules no writer relies on: a field given twice (json keeps
// the last), a key written with escapes (json decodes them) and a key
// that matches a field only case-insensitively (json matches it).
//
// The forest keeps no reference into data, so the caller may reuse it,
// as a shard reuses a ModelPut frame's buffer.
func LoadFlat(data []byte) (*FlatForest, error) {
	s := &scanner{data: data}
	ff := &FlatForest{nodes: make([]tree.FlatNode, 0, nodeBound(data))}
	var seen uint
	err := s.object(func(key []byte) error {
		f, err := s.field(key, forestFields, &seen)
		switch {
		case err != nil:
			return err
		case f == 0:
			return s.array(func() error { return s.tree(ff) })
		case f == 1:
			ff.oob, err = s.float()
			return err
		}
		return s.skip(0)
	})
	if err != nil {
		return nil, err
	}
	if s.next(); s.pos != len(data) {
		return nil, s.errorf("data after the forest")
	}
	if len(ff.roots) == 0 {
		return nil, errors.New("forest: no trees")
	}
	if ff.oob < 0 {
		ff.oob = math.NaN()
	}
	ff.quant = quantizeForest(ff)
	return ff, nil
}

// nodeBound bounds a checkpoint's node count from above: every node is
// an object, so it opens with a '{' and spells at least {"leaf":true}.
// The node table is allocated once at this size.
func nodeBound(data []byte) int {
	return min(bytes.Count(data, []byte{'{'}), len(data)/len(`{"leaf":true}`))
}

// tree reads one tree object, appending its nodes to ff.
func (s *scanner) tree(ff *FlatForest) error {
	t := len(ff.roots)
	if s.next() == 'n' {
		return s.errorf("tree %d is null", t)
	}
	base := len(ff.nodes)
	ff.roots = append(ff.roots, int32(base))
	var width, maxFeature int64
	var seen uint
	err := s.object(func(key []byte) error {
		f, err := s.field(key, treeFields, &seen)
		switch {
		case err != nil:
			return err
		case f == 0:
			width, err = s.int()
			return err
		case f == 1:
			maxFeature, err = s.nodes(ff, base)
			return err
		}
		return s.skip(0)
	})
	switch {
	case err != nil:
		return err
	case len(ff.nodes) == base:
		return s.errorf("tree %d has no nodes", t)
	case width < 1 || width > math.MaxInt32:
		return s.errorf("tree %d has invalid feature count %d", t, width)
	case maxFeature >= width:
		return s.errorf("tree %d splits on feature %d of %d", t, maxFeature, width)
	case t > 0 && int(width) != ff.nFeatures:
		return s.errorf("tree %d reads %d features, tree 0 reads %d", t, width, ff.nFeatures)
	}
	ff.nFeatures = int(width)
	return nil
}

// split is a split node whose right child has not begun: its index in
// the node table and the right link its object declared.
type split struct {
	at    int
	right int64
}

// nodes reads one tree's node array into ff.nodes and returns the
// highest feature a split reads (-1 for a lone leaf). It checks that the
// array is the tree in preorder: node i's left link is i+1, its right
// link is the node just after its left subtree, and the array ends with
// the tree. open holds the splits still waiting for their right child,
// innermost last; a leaf closes a subtree, so the node after it is the
// innermost open split's right child.
func (s *scanner) nodes(ff *FlatForest, base int) (int64, error) {
	maxFeature := int64(-1)
	open := s.open[:0]
	done := false
	err := s.array(func() error {
		i := int64(len(ff.nodes) - base)
		if done {
			return s.errorf("node %d is reached by no link", i)
		}
		if len(ff.nodes) == math.MaxInt32 {
			return s.errorf("too many nodes")
		}
		n, err := s.node()
		if err != nil {
			return err
		}
		if !n.leaf {
			if n.left != i+1 {
				return s.errorf("node %d links left child %d, want %d", i, n.left, i+1)
			}
			if n.feature < 0 {
				return s.errorf("node %d splits on invalid feature %d", i, n.feature)
			}
			maxFeature = max(maxFeature, n.feature)
			open = append(open, split{at: len(ff.nodes), right: n.right})
			ff.nodes = append(ff.nodes, tree.FlatNode{Feature: int32(n.feature), Value: n.threshold})
			return nil
		}
		// The vote is Predict's prob >= 0.5 rule, as in tree.AppendFlat.
		var vote int32
		if n.prob >= 0.5 {
			vote = 1
		}
		ff.nodes = append(ff.nodes, tree.FlatNode{Feature: tree.LeafFeature, Right: vote, Value: n.prob})
		if len(open) == 0 {
			done = true
			return nil
		}
		p := open[len(open)-1]
		open = open[:len(open)-1]
		if p.right != i+1 {
			return s.errorf("node %d links right child %d, want %d", p.at-base, p.right, i+1)
		}
		ff.nodes[p.at].Right = int32(len(ff.nodes))
		return nil
	})
	s.open = open
	if err == nil && !done && len(ff.nodes) > base {
		err = s.errorf("tree ends before its last right child")
	}
	return maxFeature, err
}

// rawNode is one node object's fields; absent ones keep their zero
// value, as with encoding/json.
type rawNode struct {
	leaf                 bool
	prob, threshold      float64
	feature, left, right int64
}

func (s *scanner) node() (rawNode, error) {
	var n rawNode
	var seen uint
	err := s.object(func(key []byte) error {
		f, err := s.field(key, nodeFields, &seen)
		if err != nil {
			return err
		}
		switch f {
		case 0:
			n.leaf, err = s.bool()
		case 1:
			_, err = s.bool() // votes follow prob, as Predict does
		case 2:
			n.prob, err = s.float()
		case 3:
			n.feature, err = s.int()
		case 4:
			n.threshold, err = s.float()
		case 5:
			n.left, err = s.int()
		case 6:
			n.right, err = s.int()
		default:
			err = s.skip(0)
		}
		return err
	})
	return n, err
}

// scanner walks a checkpoint's bytes once. Every reader skips the
// whitespace before its token.
type scanner struct {
	data []byte
	pos  int
	open []split // nodes' stack, kept across trees
}

func (s *scanner) errorf(format string, args ...any) error {
	return fmt.Errorf("forest: checkpoint byte %d: %s", s.pos, fmt.Sprintf(format, args...))
}

// next skips whitespace and returns the next byte, or 0 at the end of
// the input (a NUL byte is no more valid JSON than the end is).
func (s *scanner) next() byte {
	for d, i := s.data, s.pos; i < len(d); i++ {
		if c := d[i]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			s.pos = i
			return c
		}
	}
	s.pos = len(s.data)
	return 0
}

func (s *scanner) expect(c byte) error {
	if s.next() != c {
		return s.errorf("want %q", c)
	}
	s.pos++
	return nil
}

// object reads one object, calling member with each key and the
// scanner at that key's value, which member must consume.
func (s *scanner) object(member func(key []byte) error) error {
	if err := s.expect('{'); err != nil {
		return err
	}
	if s.next() == '}' {
		s.pos++
		return nil
	}
	for {
		key, err := s.str()
		if err != nil {
			return err
		}
		if err := s.expect(':'); err != nil {
			return err
		}
		if err := member(key); err != nil {
			return err
		}
		switch s.next() {
		case ',':
			s.pos++
		case '}':
			s.pos++
			return nil
		default:
			return s.errorf("want ',' or '}'")
		}
	}
}

// array reads one array, calling elem with the scanner at each
// element, which elem must consume.
func (s *scanner) array(elem func() error) error {
	if err := s.expect('['); err != nil {
		return err
	}
	if s.next() == ']' {
		s.pos++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		switch s.next() {
		case ',':
			s.pos++
		case ']':
			s.pos++
			return nil
		default:
			return s.errorf("want ',' or ']'")
		}
	}
}

// field resolves an object's key, as written, against its field names:
// the index of an exact match, or -1 for a key whose value is skipped.
// seen records the fields already read. A field given twice, a key
// written with escapes and a key that matches a field only under
// bytes.EqualFold are errors. No writer emits them, and encoding/json
// would keep the last twin, decode the escapes and read the folded key
// as the field, so Load could read the checkpoint differently.
func (s *scanner) field(key []byte, names []string, seen *uint) (int, error) {
	for i, name := range names {
		if string(key) == name {
			if *seen&(1<<i) != 0 {
				return 0, s.errorf("key %q given twice", name)
			}
			*seen |= 1 << i
			return i, nil
		}
	}
	if bytes.IndexByte(key, '\\') >= 0 {
		return 0, s.errorf("key %q has escapes", key)
	}
	for _, name := range names {
		if bytes.EqualFold(key, []byte(name)) {
			return 0, s.errorf("key %q is not %q", key, name)
		}
	}
	return -1, nil
}

// str reads a string and returns its body, escapes undecoded, as a
// view of the input. It checks what encoding/json checks: escapes are
// JSON's, and no byte is a control character.
func (s *scanner) str() ([]byte, error) {
	if s.next() != '"' {
		return nil, s.errorf("want a string")
	}
	d, start := s.data, s.pos+1
	for i := start; i < len(d); {
		switch c := d[i]; {
		case c == '"':
			s.pos = i + 1
			return d[start:i], nil
		case c == '\\':
			n := 2
			if i+1 < len(d) && d[i+1] == 'u' {
				n = 6
			}
			if i+n > len(d) || !validEscape(d[i+1:i+n]) {
				s.pos = i
				return nil, s.errorf("invalid escape")
			}
			i += n
		case c < 0x20:
			s.pos = i
			return nil, s.errorf("control character in string")
		default:
			i++
		}
	}
	s.pos = len(d)
	return nil, s.errorf("unterminated string")
}

// validEscape reports whether e, the bytes after a backslash, is one
// JSON escape: one of "\/bfnrt, or u and four hex digits.
func validEscape(e []byte) bool {
	if e[0] != 'u' {
		return strings.IndexByte(`"\/bfnrt`, e[0]) >= 0
	}
	for _, c := range e[1:] {
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F') {
			return false
		}
	}
	return true
}

// number reads a number, checking JSON's grammar (which strconv is
// laxer than), and returns its text.
func (s *scanner) number() ([]byte, error) {
	s.next()
	d, start, i := s.data, s.pos, s.pos
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = digits(d, i)
	default:
		return nil, s.errorf("want a value")
	}
	if i < len(d) && d[i] == '.' {
		if j := digits(d, i+1); j > i+1 {
			i = j
		} else {
			return nil, s.errorf("want a digit")
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if j := digits(d, i); j > i {
			i = j
		} else {
			return nil, s.errorf("want a digit")
		}
	}
	s.pos = i
	return d[start:i], nil
}

func digits(d []byte, i int) int {
	for i < len(d) && '0' <= d[i] && d[i] <= '9' {
		i++
	}
	return i
}

func (s *scanner) float() (float64, error) {
	text, err := s.number()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(string(text), 64)
	if err != nil {
		return 0, s.errorf("%v", err)
	}
	return v, nil
}

func (s *scanner) int() (int64, error) {
	text, err := s.number()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseInt(string(text), 10, 64)
	if err != nil {
		return 0, s.errorf("%v", err)
	}
	return v, nil
}

func (s *scanner) bool() (bool, error) {
	switch s.next() {
	case 't':
		return true, s.literal("true")
	case 'f':
		return false, s.literal("false")
	}
	return false, s.errorf("want true or false")
}

func (s *scanner) literal(word string) error {
	if end := s.pos + len(word); end > len(s.data) || string(s.data[s.pos:end]) != word {
		return s.errorf("want %s", word)
	}
	s.pos += len(word)
	return nil
}

// skip reads one value of any kind, checking its syntax, and discards
// it.
func (s *scanner) skip(depth int) error {
	if depth > maxSkipDepth {
		return s.errorf("value nested too deeply")
	}
	switch s.next() {
	case '{':
		return s.object(func([]byte) error { return s.skip(depth + 1) })
	case '[':
		return s.array(func() error { return s.skip(depth + 1) })
	case '"':
		_, err := s.str()
		return err
	case 't':
		return s.literal("true")
	case 'f':
		return s.literal("false")
	case 'n':
		return s.literal("null")
	}
	_, err := s.number()
	return err
}
