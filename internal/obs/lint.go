package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// namePattern is the repo's metric naming convention: every family is
// shield_-prefixed, lowercase, with underscores. The linter applies it
// to family names; _bucket/_sum/_count suffixes are stripped first.
var namePattern = regexp.MustCompile(`^shield_[a-z0-9_]+$`)

// LintExposition validates a text exposition against the exposition
// format plus this repo's conventions and returns the list of problems
// found (nil when clean):
//
//   - every family name matches shield_[a-z0-9_]+
//   - HELP and TYPE appear exactly once per family, HELP first, before
//     any of its samples
//   - a family's samples are contiguous (one block per family)
//   - no duplicate series (same name and label set twice)
//   - sample values parse; label syntax balances its quotes and escapes
//   - histogram series carry _sum, _count and a +Inf bucket equal to
//     _count, with cumulative bucket counts monotone in le
//   - exemplars appear only on _bucket lines, parse as
//     "# {trace_id=\"...\"} value timestamp", and the exemplar's value
//     fits inside its bucket (value <= le)
//
// It understands exactly the dialect WritePrometheus emits — the
// Prometheus text format plus OpenMetrics-style bucket exemplars.
func LintExposition(text string) []string {
	l := &linter{
		help:  map[string]bool{},
		typ:   map[string]string{},
		done:  map[string]bool{},
		serie: map[string]bool{},
	}
	lineNo := 0
	for _, line := range strings.Split(text, "\n") {
		lineNo++
		if line == "" {
			continue
		}
		l.line(lineNo, line)
	}
	l.closeFamily()
	return l.problems
}

type linter struct {
	problems []string

	cur   string // family currently emitting samples ("" before any)
	help  map[string]bool
	typ   map[string]string // family -> kind keyword
	done  map[string]bool   // families whose sample block has closed
	serie map[string]bool   // name+labels seen

	// histogram accumulation for the current family
	hist map[string]*histSeries // base label-set -> state
}

type histSeries struct {
	les        []float64
	counts     []float64
	sum, count float64
	hasSum     bool
	hasCount   bool
}

func (l *linter) errf(lineNo int, format string, args ...any) {
	l.problems = append(l.problems, fmt.Sprintf("line %d: %s", lineNo, fmt.Sprintf(format, args...)))
}

func (l *linter) line(n int, line string) {
	if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
		kind := line[2:6]
		rest := line[7:]
		name, _, _ := strings.Cut(rest, " ")
		if name == "" {
			l.errf(n, "%s line without a family name", kind)
			return
		}
		l.meta(n, kind, name, line)
		return
	}
	if strings.HasPrefix(line, "#") {
		l.errf(n, "unexpected comment line %q", line)
		return
	}
	l.sample(n, line)
}

// meta handles a HELP or TYPE line: it opens a (new) family block.
func (l *linter) meta(n int, kind, name, line string) {
	if name != l.cur {
		l.closeFamily()
		if l.done[name] {
			l.errf(n, "family %s reopened: HELP/TYPE must appear once, samples contiguous", name)
		}
		l.cur = name
		if !namePattern.MatchString(name) {
			l.errf(n, "family %s violates naming convention %s", name, namePattern)
		}
	}
	switch kind {
	case "HELP":
		if l.help[name] {
			l.errf(n, "duplicate HELP for %s", name)
		}
		l.help[name] = true
		if l.typ[name] != "" {
			l.errf(n, "HELP for %s after its TYPE", name)
		}
	case "TYPE":
		if l.typ[name] != "" {
			l.errf(n, "duplicate TYPE for %s", name)
		}
		fields := strings.Fields(line)
		k := fields[len(fields)-1]
		switch k {
		case "counter", "gauge", "histogram", "untyped":
		default:
			l.errf(n, "family %s has unknown TYPE %q", name, k)
		}
		l.typ[name] = k
		if !l.help[name] {
			l.errf(n, "TYPE for %s without a preceding HELP", name)
		}
		if k == "histogram" {
			l.hist = map[string]*histSeries{}
		}
	}
}

func (l *linter) sample(n int, line string) {
	name, labels, value, ex, err := ParseSample(line)
	if err != nil {
		l.errf(n, "unparseable sample: %v", err)
		return
	}
	base := name
	suffix := ""
	if l.typ[l.cur] == "histogram" {
		for _, s := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, s) && strings.TrimSuffix(name, s) == l.cur {
				base, suffix = l.cur, s
				break
			}
		}
	}
	if base != l.cur {
		l.errf(n, "sample %s outside its family's HELP/TYPE block", name)
		return
	}
	if key := name + "{" + canonicalLabels(labels) + "}"; l.serie[key] {
		l.errf(n, "duplicate series %s", key)
	} else {
		l.serie[key] = true
	}
	if ex != nil && suffix != "_bucket" {
		l.errf(n, "exemplar on non-bucket sample %s", name)
	}

	if l.typ[l.cur] != "histogram" {
		return
	}

	// Histogram bookkeeping: group by the label set minus le.
	var le string
	kept := labels[:0:0]
	for _, kv := range labels {
		if kv[0] == "le" {
			le = kv[1]
			continue
		}
		kept = append(kept, kv)
	}
	key := canonicalLabels(kept)
	hs := l.hist[key]
	if hs == nil {
		hs = &histSeries{}
		l.hist[key] = hs
	}
	switch suffix {
	case "_bucket":
		if le == "" {
			l.errf(n, "bucket sample without le label")
			return
		}
		bound := math.Inf(1)
		if le != "+Inf" {
			var perr error
			bound, perr = strconv.ParseFloat(le, 64)
			if perr != nil {
				l.errf(n, "bucket le %q does not parse", le)
				return
			}
		}
		if k := len(hs.les); k > 0 && bound <= hs.les[k-1] {
			l.errf(n, "bucket le %q out of ascending order", le)
		}
		if k := len(hs.counts); k > 0 && value < hs.counts[k-1] {
			l.errf(n, "cumulative bucket count decreases at le %q (%g < %g)", le, value, hs.counts[k-1])
		}
		hs.les = append(hs.les, bound)
		hs.counts = append(hs.counts, value)
		if ex != nil && ex.Value > bound {
			l.errf(n, "exemplar value %g exceeds its bucket bound le=%q", ex.Value, le)
		}
	case "_sum":
		hs.sum, hs.hasSum = value, true
	case "_count":
		hs.count, hs.hasCount = value, true
	default:
		l.errf(n, "bare sample %s in histogram family", name)
	}
}

// closeFamily runs the end-of-block histogram checks and marks the
// family's sample block closed.
func (l *linter) closeFamily() {
	if l.cur == "" {
		return
	}
	if l.typ[l.cur] == "histogram" {
		for key, hs := range l.hist {
			at := l.cur
			if key != "" {
				at += "{" + key + "}"
			}
			if !hs.hasSum || !hs.hasCount {
				l.problems = append(l.problems, fmt.Sprintf("%s: histogram series missing _sum or _count", at))
			}
			k := len(hs.les)
			if k == 0 || !math.IsInf(hs.les[k-1], 1) {
				l.problems = append(l.problems, fmt.Sprintf("%s: histogram series missing +Inf bucket", at))
			} else if hs.hasCount && hs.counts[k-1] != hs.count {
				l.problems = append(l.problems, fmt.Sprintf("%s: +Inf bucket %g != _count %g", at, hs.counts[k-1], hs.count))
			}
		}
	}
	l.done[l.cur] = true
	l.cur = ""
	l.hist = nil
}

// exemplar is a sample's exemplar suffix: the trace it names and the
// value it observed.
type exemplar struct {
	TraceID string
	Value   float64
}

// ParseSample parses one sample line of the dialect this package emits —
// the linter's reading, and shieldtop's:
//
//	name[{labels}] value [# {trace_id="..."} value timestamp]
//
// Label values are unescaped; ex is nil on a line without an exemplar.
func ParseSample(line string) (name string, labels [][2]string, value float64, ex *exemplar, err error) {
	i := strings.IndexAny(line, "{ ")
	if i <= 0 {
		return "", nil, 0, nil, fmt.Errorf("no name/value separator in %q", line)
	}
	name = line[:i]
	rest := line[i:]
	if rest[0] == '{' {
		labels, rest, err = parseLabels(rest)
		if err != nil {
			return "", nil, 0, nil, err
		}
		if !strings.HasPrefix(rest, " ") {
			return "", nil, 0, nil, fmt.Errorf("missing space after label set")
		}
	}
	rest = rest[1:]
	valStr, tail, _ := strings.Cut(rest, " ")
	value, err = strconv.ParseFloat(valStr, 64)
	if err != nil {
		return "", nil, 0, nil, fmt.Errorf("value %q does not parse", valStr)
	}
	if tail == "" {
		return name, labels, value, nil, nil
	}
	ex, err = parseExemplar(tail)
	return name, labels, value, ex, err
}

// parseExemplar parses the "# {trace_id=\"...\"} value timestamp" tail.
func parseExemplar(tail string) (*exemplar, error) {
	rest, ok := strings.CutPrefix(tail, "# ")
	if !ok || len(rest) == 0 || rest[0] != '{' {
		return nil, fmt.Errorf("trailing content %q is not an exemplar", tail)
	}
	labels, rest, err := parseLabels(rest)
	if err != nil {
		return nil, fmt.Errorf("exemplar labels: %w", err)
	}
	if len(labels) != 1 || labels[0][0] != "trace_id" {
		return nil, fmt.Errorf("exemplar must carry exactly trace_id, got %v", labels)
	}
	fields := strings.Fields(rest)
	if len(fields) != 2 {
		return nil, fmt.Errorf("exemplar needs value and timestamp, got %q", rest)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return nil, fmt.Errorf("exemplar value %q does not parse", fields[0])
	}
	if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
		return nil, fmt.Errorf("exemplar timestamp %q does not parse", fields[1])
	}
	return &exemplar{TraceID: labels[0][1], Value: v}, nil
}

// parseLabels parses a {k="v",...} block (s starts at '{') with the
// exposition format's three escapes, returning the pairs and the
// remainder after the closing brace.
func parseLabels(s string) ([][2]string, string, error) {
	var out [][2]string
	i := 1 // past '{'
	for {
		if i >= len(s) {
			return nil, "", fmt.Errorf("unterminated label set")
		}
		if s[i] == '}' {
			return out, s[i+1:], nil
		}
		if len(out) > 0 {
			if s[i] != ',' {
				return nil, "", fmt.Errorf("missing comma between labels")
			}
			i++
		}
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("label without '='")
		}
		name := s[i : i+eq]
		i += eq + 1
		if i >= len(s) || s[i] != '"' {
			return nil, "", fmt.Errorf("label %s value not quoted", name)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(s) {
				return nil, "", fmt.Errorf("unterminated label value for %s", name)
			}
			c := s[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				if i+1 >= len(s) {
					return nil, "", fmt.Errorf("dangling escape in label %s", name)
				}
				switch s[i+1] {
				case '\\':
					val.WriteByte('\\')
				case 'n':
					val.WriteByte('\n')
				case '"':
					val.WriteByte('"')
				default:
					return nil, "", fmt.Errorf("unknown escape \\%c in label %s", s[i+1], name)
				}
				i += 2
				continue
			}
			val.WriteByte(c)
			i++
		}
		out = append(out, [2]string{name, val.String()})
	}
}

// canonicalLabels renders label pairs sorted by name, for duplicate
// detection independent of emission order.
func canonicalLabels(labels [][2]string) string {
	pairs := make([]string, len(labels))
	for i, kv := range labels {
		pairs[i] = kv[0] + "=" + strconv.Quote(kv[1])
	}
	sort.Strings(pairs)
	return strings.Join(pairs, ",")
}
