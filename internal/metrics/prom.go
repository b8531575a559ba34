package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// promPrefix namespaces every exposed family.
const promPrefix = "dcl1_"

// WriteProm renders one or more batches in the Prometheus text exposition
// format (version 0.0.4). Families are emitted in sorted order with one
// # TYPE line each; samples carry design/app/component/domain labels, so
// several designs' batches (one sweep job) can share one scrape page.
// Histograms are exposed as summaries with interpolated 0.5/0.99 quantiles.
func WriteProm(w io.Writer, batches ...*Batch) error {
	type ref struct {
		b *Batch
		i int
	}
	byFamily := map[string][]ref{}
	var families []string
	for _, b := range batches {
		if b == nil {
			continue
		}
		for i := range b.Samples {
			_, _, name := SplitID(b.Samples[i].ID)
			if _, ok := byFamily[name]; !ok {
				families = append(families, name)
			}
			byFamily[name] = append(byFamily[name], ref{b, i})
		}
	}
	sort.Strings(families)
	for _, fam := range families {
		refs := byFamily[fam]
		kind := refs[0].b.Samples[refs[0].i].Kind
		if _, err := fmt.Fprintf(w, "# TYPE %s%s %s\n", promPrefix, fam, kind); err != nil {
			return err
		}
		for _, r := range refs {
			s := &r.b.Samples[r.i]
			comp, domain, _ := SplitID(s.ID)
			labels := promLabels(r.b.Design, r.b.App, comp, domain)
			switch s.Kind {
			case KindHistogram:
				fmt.Fprintf(w, "%s%s{%s,quantile=\"0.5\"} %d\n", promPrefix, fam, labels, s.P50)
				fmt.Fprintf(w, "%s%s{%s,quantile=\"0.99\"} %d\n", promPrefix, fam, labels, s.P99)
				fmt.Fprintf(w, "%s%s_sum{%s} %d\n", promPrefix, fam, labels, s.Sum)
				if _, err := fmt.Fprintf(w, "%s%s_count{%s} %d\n", promPrefix, fam, labels, s.Count); err != nil {
					return err
				}
			default:
				if _, err := fmt.Fprintf(w, "%s%s{%s} %s\n",
					promPrefix, fam, labels, formatPromValue(s.Value)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func promLabels(design, app, comp, domain string) string {
	if mod, rest, ok := splitModuleComp(comp); ok {
		return fmt.Sprintf("design=%q,app=%q,component=%q,domain=%q,module=%q",
			promEscape(design), promEscape(app), promEscape(rest), promEscape(domain), mod)
	}
	return fmt.Sprintf("design=%q,app=%q,component=%q,domain=%q",
		promEscape(design), promEscape(app), promEscape(comp), promEscape(domain))
}

// splitModuleComp recognizes the "m<N>." component prefix multi-GPU machines
// stamp on every per-module component (see gpu.Module) and splits it into
// the module label and the bare component name. Components without the
// prefix — single-module runs and machine-level parts like the inter-module
// link — carry no module label.
func splitModuleComp(comp string) (module, rest string, ok bool) {
	if len(comp) < 3 || comp[0] != 'm' {
		return "", "", false
	}
	i := 1
	for i < len(comp) && comp[i] >= '0' && comp[i] <= '9' {
		i++
	}
	if i == 1 || i == len(comp) || comp[i] != '.' || i+1 == len(comp) {
		return "", "", false
	}
	return comp[:i], comp[i+1:], true
}

func promEscape(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer("\\", "\\\\", "\"", "\\\"", "\n", "\\n")
	return r.Replace(s)
}

func formatPromValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// LintProm validates a text exposition page against the subset of the
// Prometheus 0.0.4 format this package emits, strictly enough to catch
// format regressions in CI: metric and label names must be legal, every
// sample's family must be typed by a preceding # TYPE line, a family must
// not be typed twice, label values must be properly quoted, values must be
// floats, and no two samples may share an identical name + label set.
func LintProm(r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	typed := map[string]string{}
	seen := map[string]bool{}
	lines := strings.Split(string(data), "\n")
	for ln, line := range lines {
		n := ln + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "TYPE" && fields[1] != "HELP") {
				return fmt.Errorf("prom lint: line %d: malformed comment %q", n, line)
			}
			if !validMetricName(fields[2]) {
				return fmt.Errorf("prom lint: line %d: bad metric name %q", n, fields[2])
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					return fmt.Errorf("prom lint: line %d: TYPE needs a type", n)
				}
				switch fields[3] {
				case "counter", "gauge", "summary", "histogram", "untyped":
				default:
					return fmt.Errorf("prom lint: line %d: unknown type %q", n, fields[3])
				}
				if _, dup := typed[fields[2]]; dup {
					return fmt.Errorf("prom lint: line %d: family %s typed twice", n, fields[2])
				}
				typed[fields[2]] = fields[3]
			}
			continue
		}
		name, rest, err := splitPromName(line)
		if err != nil {
			return fmt.Errorf("prom lint: line %d: %v", n, err)
		}
		fam := name
		if typ, ok := typed[fam]; !ok || typ == "" {
			for _, suffix := range []string{"_sum", "_count", "_bucket"} {
				if strings.HasSuffix(name, suffix) {
					if _, ok := typed[strings.TrimSuffix(name, suffix)]; ok {
						fam = strings.TrimSuffix(name, suffix)
					}
				}
			}
		}
		if _, ok := typed[fam]; !ok {
			return fmt.Errorf("prom lint: line %d: sample %s has no preceding # TYPE", n, name)
		}
		labels, value, err := splitPromLabels(rest)
		if err != nil {
			return fmt.Errorf("prom lint: line %d: %v", n, err)
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			return fmt.Errorf("prom lint: line %d: bad value %q", n, value)
		}
		key := name + "{" + labels + "}"
		if seen[key] {
			return fmt.Errorf("prom lint: line %d: duplicate series %s", n, key)
		}
		seen[key] = true
	}
	if len(typed) == 0 {
		return fmt.Errorf("prom lint: no metric families in page")
	}
	return nil
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
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
	for i, c := range s {
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// splitPromName splits a sample line into the metric name and the remainder
// (label block and value).
func splitPromName(line string) (name, rest string, err error) {
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return "", "", fmt.Errorf("sample without value: %q", line)
	}
	name = line[:i]
	if !validMetricName(name) {
		return "", "", fmt.Errorf("bad metric name %q", name)
	}
	return name, line[i:], nil
}

// splitPromLabels validates the label block (if any) and returns the
// canonical label string plus the sample value.
func splitPromLabels(rest string) (labels, value string, err error) {
	if !strings.HasPrefix(rest, "{") {
		return "", strings.TrimSpace(rest), nil
	}
	end := -1
	inQuote := false
	for i := 1; i < len(rest); i++ {
		switch {
		case inQuote && rest[i] == '\\':
			i++
		case rest[i] == '"':
			inQuote = !inQuote
		case !inQuote && rest[i] == '}':
			end = i
		}
		if end >= 0 {
			break
		}
	}
	if end < 0 {
		return "", "", fmt.Errorf("unterminated label block")
	}
	block := rest[1:end]
	if block != "" {
		for _, pair := range splitLabelPairs(block) {
			k, v, ok := strings.Cut(pair, "=")
			if !ok || !validLabelName(k) {
				return "", "", fmt.Errorf("bad label pair %q", pair)
			}
			if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
				return "", "", fmt.Errorf("unquoted label value in %q", pair)
			}
		}
	}
	return block, strings.TrimSpace(rest[end+1:]), nil
}

// splitLabelPairs splits k1="v1",k2="v2" on commas outside quotes.
func splitLabelPairs(block string) []string {
	var out []string
	start := 0
	inQuote := false
	for i := 0; i < len(block); i++ {
		switch {
		case inQuote && block[i] == '\\':
			i++
		case block[i] == '"':
			inQuote = !inQuote
		case !inQuote && block[i] == ',':
			out = append(out, block[start:i])
			start = i + 1
		}
	}
	return append(out, block[start:])
}
