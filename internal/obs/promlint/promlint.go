// Package promlint is a small, dependency-free checker for the
// Prometheus text exposition format (version 0.0.4), vendored so `make
// metrics-lint` can validate a live /metrics scrape without pulling in the
// upstream client libraries. It is test support: only _test.go files
// import it. It checks the structural rules a scraper relies on:
// well-formed HELP / TYPE / sample lines, TYPE declared before a family's
// samples, sample names consistent with the declared family (histogram
// suffixes included), parseable values, and histogram invariants
// (cumulative buckets monotone in le, a +Inf bucket present and equal to
// _count).
package promlint

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

var validMetricTypes = map[string]bool{
	"counter": true, "gauge": true, "histogram": true, "summary": true, "untyped": true,
}

type histCheck struct {
	lastCum   float64
	lastLe    float64
	infCount  float64
	haveInf   bool
	count     float64
	haveCount bool
}

// Lint validates data and returns every problem found (nil if the
// exposition is clean).
func Lint(data []byte) []error {
	var errs []error
	fail := func(line int, format string, args ...any) {
		errs = append(errs, fmt.Errorf("line %d: %s", line, fmt.Sprintf(format, args...)))
	}

	types := map[string]string{} // family -> declared TYPE
	hists := map[string]*histCheck{}
	var curFamily string

	lines := strings.Split(string(data), "\n")
	for i, line := range lines {
		ln := i + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok || !validMetricName(name) {
				fail(ln, "malformed HELP line %q", line)
			}
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				fail(ln, "malformed TYPE line %q", line)
				continue
			}
			name, typ := fields[0], fields[1]
			if !validMetricName(name) {
				fail(ln, "invalid metric name %q in TYPE line", name)
			}
			if !validMetricTypes[typ] {
				fail(ln, "unknown metric type %q", typ)
			}
			if _, dup := types[name]; dup {
				fail(ln, "duplicate TYPE declaration for %q", name)
			}
			types[name] = typ
			curFamily = name
			if typ == "histogram" {
				hists[name] = &histCheck{lastLe: math.Inf(-1)}
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // other comments are legal and ignored
		}

		name, labels, value, err := parseSample(line)
		if err != nil {
			fail(ln, "%v", err)
			continue
		}
		family := sampleFamily(name, types)
		if family == "" {
			fail(ln, "sample %q has no preceding TYPE declaration", name)
			continue
		}
		if curFamily != "" && family != curFamily {
			// Samples of a family must be grouped; a family reappearing
			// after another began is an interleave error.
			if _, seen := types[family]; seen && family != curFamily {
				fail(ln, "sample %q interleaved outside its %q family block", name, family)
			}
		}
		if types[family] == "histogram" {
			h := hists[family]
			switch {
			case name == family+"_bucket":
				leStr, ok := labels["le"]
				if !ok {
					fail(ln, "histogram bucket %q missing le label", name)
					continue
				}
				le, err := parseLe(leStr)
				if err != nil {
					fail(ln, "histogram bucket %q: %v", name, err)
					continue
				}
				if le <= h.lastLe {
					fail(ln, "histogram %q buckets not in increasing le order (%q)", family, leStr)
				}
				if value < h.lastCum {
					fail(ln, "histogram %q cumulative bucket counts decrease at le=%q", family, leStr)
				}
				h.lastLe, h.lastCum = le, value
				if math.IsInf(le, +1) {
					h.haveInf, h.infCount = true, value
				}
			case name == family+"_count":
				h.haveCount, h.count = true, value
			case name == family+"_sum":
			default:
				fail(ln, "sample %q is not a valid histogram series of %q", name, family)
			}
		}
	}

	for family, h := range hists {
		if !h.haveInf {
			errs = append(errs, fmt.Errorf("histogram %q has no +Inf bucket", family))
		}
		if !h.haveCount {
			errs = append(errs, fmt.Errorf("histogram %q has no _count sample", family))
		} else if h.haveInf && h.infCount != h.count {
			errs = append(errs, fmt.Errorf("histogram %q: +Inf bucket %v != _count %v", family, h.infCount, h.count))
		}
	}
	return errs
}

// sampleFamily maps a sample name to its declared family, resolving the
// reserved histogram/summary suffixes.
func sampleFamily(name string, types map[string]string) string {
	if _, ok := types[name]; ok {
		return name
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suf); ok {
			if t := types[base]; t == "histogram" || t == "summary" {
				return base
			}
		}
	}
	return ""
}

func parseLe(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(+1), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("unparseable le value %q", s)
	}
	return v, nil
}

// parseSample parses `name{label="v",...} value` (labels optional).
func parseSample(line string) (name string, labels map[string]string, value float64, err error) {
	rest := line
	i := strings.IndexAny(rest, "{ ")
	if i < 0 {
		return "", nil, 0, fmt.Errorf("malformed sample line %q", line)
	}
	name = rest[:i]
	if !validMetricName(name) {
		return "", nil, 0, fmt.Errorf("invalid metric name %q", name)
	}
	labels = map[string]string{}
	if rest[i] == '{' {
		rest = rest[i+1:]
		for {
			rest = strings.TrimLeft(rest, " ,")
			if rest == "" {
				return "", nil, 0, fmt.Errorf("unterminated label set in %q", line)
			}
			if rest[0] == '}' {
				rest = rest[1:]
				break
			}
			eq := strings.IndexByte(rest, '=')
			if eq < 0 {
				return "", nil, 0, fmt.Errorf("malformed label pair in %q", line)
			}
			lname := rest[:eq]
			if !validLabelName(lname) {
				return "", nil, 0, fmt.Errorf("invalid label name %q", lname)
			}
			rest = rest[eq+1:]
			if rest == "" || rest[0] != '"' {
				return "", nil, 0, fmt.Errorf("unquoted label value in %q", line)
			}
			lval, tail, perr := parseQuoted(rest)
			if perr != nil {
				return "", nil, 0, fmt.Errorf("%v in %q", perr, line)
			}
			labels[lname] = lval
			rest = tail
		}
	} else {
		rest = rest[i:]
	}
	rest = strings.TrimSpace(rest)
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 { // optional trailing timestamp
		return "", nil, 0, fmt.Errorf("malformed value in %q", line)
	}
	value, err = parseValue(fields[0])
	if err != nil {
		return "", nil, 0, fmt.Errorf("unparseable value %q in %q", fields[0], line)
	}
	return name, labels, value, nil
}

// parseQuoted consumes a double-quoted, backslash-escaped string at the
// start of s and returns the unescaped value and the remainder.
func parseQuoted(s string) (string, string, error) {
	var sb strings.Builder
	for j := 1; j < len(s); j++ {
		switch s[j] {
		case '\\':
			j++
			if j >= len(s) {
				return "", "", fmt.Errorf("dangling escape")
			}
			switch s[j] {
			case 'n':
				sb.WriteByte('\n')
			case '\\', '"':
				sb.WriteByte(s[j])
			default:
				return "", "", fmt.Errorf("invalid escape \\%c", s[j])
			}
		case '"':
			return sb.String(), s[j+1:], nil
		default:
			sb.WriteByte(s[j])
		}
	}
	return "", "", fmt.Errorf("unterminated quoted string")
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(+1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
