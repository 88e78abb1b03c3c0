package obs

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// ParsedMetric is one sample line of a parsed exposition page.
type ParsedMetric struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// ParsedFamily is one metric family of a parsed exposition page:
// metadata plus its samples (for histograms, the _bucket/_sum/_count
// series keep their suffixed names in Samples).
type ParsedFamily struct {
	Name    string
	Kind    string
	Help    string
	Samples []ParsedMetric
}

// Exposition is a parsed /metrics page, indexed by family name.
type Exposition struct {
	Families map[string]*ParsedFamily
}

// Value returns the sample with the given name and exact label set,
// reporting whether it exists. Histogram series are looked up by their
// suffixed name (name_bucket, name_sum, name_count); labels may be nil
// for unlabeled samples.
func (e *Exposition) Value(name string, labels map[string]string) (float64, bool) {
	fam := e.Families[familyOf(name)]
	if fam == nil {
		return 0, false
	}
	for _, s := range fam.Samples {
		if s.Name != name || len(s.Labels) != len(labels) {
			continue
		}
		match := true
		for k, v := range labels {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return s.Value, true
		}
	}
	return 0, false
}

// Has reports whether the page contains a family with the given name.
func (e *Exposition) Has(family string) bool {
	return e.Families[family] != nil
}

// familyOf strips a histogram series suffix to its family name.
func familyOf(name string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suffix) {
			return strings.TrimSuffix(name, suffix)
		}
	}
	return name
}

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	// helpUnescaper undoes escapeHelp: # HELP text escapes backslash
	// and newline.
	helpUnescaper = strings.NewReplacer(`\\`, `\`, `\n`, "\n")
)

// ParseExposition parses a Prometheus text exposition page strictly:
// every sample must belong to a family announced by # HELP and # TYPE
// lines, names must be legal, label sets must be well formed, and
// values must parse as floats. It exists so tests (and the CI e2e
// scrape) fail on output a real Prometheus scraper would reject.
func ParseExposition(text string) (*Exposition, error) {
	exp := &Exposition{Families: make(map[string]*ParsedFamily)}
	helpSeen := make(map[string]bool)
	typeSeen := make(map[string]bool)
	for ln, line := range strings.Split(text, "\n") {
		lineNo := ln + 1
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok || !metricNameRe.MatchString(name) {
				return nil, fmt.Errorf("line %d: malformed HELP line %q", lineNo, line)
			}
			if helpSeen[name] {
				return nil, fmt.Errorf("line %d: duplicate HELP for %s", lineNo, name)
			}
			helpSeen[name] = true
			exp.family(name).Help = helpUnescaper.Replace(help)
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, kind, ok := strings.Cut(rest, " ")
			if !ok || !metricNameRe.MatchString(name) {
				return nil, fmt.Errorf("line %d: malformed TYPE line %q", lineNo, line)
			}
			switch kind {
			case KindCounter, KindGauge, KindHistogram, "summary", "untyped":
			default:
				return nil, fmt.Errorf("line %d: unknown metric type %q for %s", lineNo, kind, name)
			}
			if typeSeen[name] {
				return nil, fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, name)
			}
			typeSeen[name] = true
			exp.family(name).Kind = kind
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // free-form comment
		}
		m, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		famName := familyOf(m.Name)
		fam := exp.Families[famName]
		// A _sum/_count/_bucket suffix only folds into a family when that
		// family was announced as a histogram; otherwise the bare name is
		// its own family (e.g. a counter literally named foo_count).
		if fam == nil || (famName != m.Name && fam.Kind != KindHistogram) {
			famName = m.Name
			fam = exp.Families[famName]
		}
		if fam == nil {
			return nil, fmt.Errorf("line %d: sample %s has no preceding HELP/TYPE", lineNo, m.Name)
		}
		if !helpSeen[famName] || !typeSeen[famName] {
			return nil, fmt.Errorf("line %d: family %s missing %s", lineNo, famName,
				map[bool]string{true: "TYPE", false: "HELP"}[helpSeen[famName]])
		}
		fam.Samples = append(fam.Samples, m)
	}
	for name, fam := range exp.Families {
		if fam.Kind == "" {
			return nil, fmt.Errorf("family %s has HELP but no TYPE", name)
		}
	}
	return exp, nil
}

func (e *Exposition) family(name string) *ParsedFamily {
	fam := e.Families[name]
	if fam == nil {
		fam = &ParsedFamily{Name: name}
		e.Families[name] = fam
	}
	return fam
}

// parseSampleLine parses `name{k="v",...} value` (labels optional).
func parseSampleLine(line string) (ParsedMetric, error) {
	m := ParsedMetric{}
	rest := line
	brace := strings.IndexByte(rest, '{')
	space := strings.IndexByte(rest, ' ')
	if brace >= 0 && (space < 0 || brace < space) {
		m.Name = rest[:brace]
		rest = rest[brace+1:]
		labels, tail, err := parseLabels(rest)
		if err != nil {
			return m, fmt.Errorf("sample %s: %w", m.Name, err)
		}
		m.Labels = labels
		rest = tail
	} else {
		if space < 0 {
			return m, fmt.Errorf("malformed sample line %q", line)
		}
		m.Name = rest[:space]
		rest = rest[space:]
	}
	if !metricNameRe.MatchString(m.Name) {
		return m, fmt.Errorf("illegal metric name %q", m.Name)
	}
	rest = strings.TrimLeft(rest, " ")
	// A timestamp after the value is legal in the format; take the first
	// field as the value.
	valueField := rest
	if i := strings.IndexByte(rest, ' '); i >= 0 {
		valueField = rest[:i]
	}
	v, err := parseValue(valueField)
	if err != nil {
		return m, fmt.Errorf("sample %s: bad value %q", m.Name, valueField)
	}
	m.Value = v
	return m, nil
}

// parseLabels consumes `k="v",...}` and returns the labels plus the
// remainder of the line after the closing brace.
func parseLabels(s string) (map[string]string, string, error) {
	labels := make(map[string]string)
	for {
		s = strings.TrimLeft(s, " ")
		if strings.HasPrefix(s, "}") {
			return labels, s[1:], nil
		}
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("malformed label set near %q", s)
		}
		name := strings.TrimSpace(s[:eq])
		if !labelNameRe.MatchString(name) {
			return nil, "", fmt.Errorf("illegal label name %q", name)
		}
		s = s[eq+1:]
		if !strings.HasPrefix(s, `"`) {
			return nil, "", fmt.Errorf("label %s: value not quoted", name)
		}
		s = s[1:]
		var b strings.Builder
		for {
			if s == "" {
				return nil, "", fmt.Errorf("label %s: unterminated value", name)
			}
			c := s[0]
			s = s[1:]
			if c == '"' {
				break
			}
			if c == '\\' {
				if s == "" {
					return nil, "", fmt.Errorf("label %s: dangling escape", name)
				}
				esc := s[0]
				s = s[1:]
				switch esc {
				case '\\':
					b.WriteByte('\\')
				case '"':
					b.WriteByte('"')
				case 'n':
					b.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("label %s: bad escape \\%c", name, esc)
				}
				continue
			}
			b.WriteByte(c)
		}
		if _, dup := labels[name]; dup {
			return nil, "", fmt.Errorf("duplicate label %s", name)
		}
		labels[name] = b.String()
		s = strings.TrimLeft(s, " ")
		if strings.HasPrefix(s, ",") {
			s = s[1:]
			continue
		}
		if strings.HasPrefix(s, "}") {
			return labels, s[1:], nil
		}
		return nil, "", fmt.Errorf("label %s: expected , or } near %q", name, s)
	}
}

// parseValue parses a sample value, including the format's +Inf/-Inf
// and NaN spellings.
func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return inf(1), nil
	case "-Inf":
		return inf(-1), nil
	}
	return strconv.ParseFloat(s, 64)
}

func inf(sign int) float64 {
	v, _ := strconv.ParseFloat("inf", 64)
	if sign < 0 {
		return -v
	}
	return v
}
