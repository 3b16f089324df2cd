package obs

import (
	"encoding/binary"
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The fuzz targets attack the two trust boundaries of the package: the
// Prometheus exposition (consumed by external scrapers, so it must be
// well-formed for every registry content) and Histogram.Observe
// (fed raw float64 bit patterns from the serving path).

// validatePromText is a small, strict parser for the text format the
// registry emits. It checks: every line is a TYPE comment or a sample;
// exactly one # TYPE per family, appearing before that family's
// samples; metric and label names match the legal alphabet; label
// values use only the three legal escapes; no duplicate series; and
// histogram families have a cumulative non-decreasing bucket ladder
// ending at le="+Inf" whose value equals _count.
func validatePromText(text string) error {
	nameRe := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	type histAgg struct {
		buckets map[string][]struct{ le, v float64 }
		sums    map[string]bool
		counts  map[string]float64
	}
	fams := map[string]string{} // family name -> kind
	hists := map[string]*histAgg{}
	seen := map[string]bool{} // duplicate-series detection

	canonical := func(name string, labels []Label) string {
		ls := append([]Label(nil), labels...)
		sort.Slice(ls, func(a, b int) bool { return ls[a].Key < ls[b].Key })
		var sb strings.Builder
		sb.WriteString(name)
		for _, l := range ls {
			sb.WriteString("|")
			sb.WriteString(l.Key)
			sb.WriteString("=")
			sb.WriteString(l.Value)
		}
		return sb.String()
	}

	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			parts := strings.Split(line, " ")
			if len(parts) != 4 || parts[0] != "#" || parts[1] != "TYPE" {
				return fmt.Errorf("line %d: malformed comment %q", ln, line)
			}
			name, kindWord := parts[2], parts[3]
			if !nameRe.MatchString(name) {
				return fmt.Errorf("line %d: bad family name %q", ln, name)
			}
			if kindWord != "counter" && kindWord != "gauge" && kindWord != "histogram" {
				return fmt.Errorf("line %d: bad kind %q", ln, kindWord)
			}
			if _, dup := fams[name]; dup {
				return fmt.Errorf("line %d: duplicate # TYPE for %q", ln, name)
			}
			fams[name] = kindWord
			if kindWord == "histogram" {
				hists[name] = &histAgg{
					buckets: map[string][]struct{ le, v float64 }{},
					sums:    map[string]bool{},
					counts:  map[string]float64{},
				}
			}
			continue
		}

		name, labels, val, err := parseSampleLine(line)
		if err != nil {
			return fmt.Errorf("line %d: %v", ln, err)
		}
		if !nameRe.MatchString(name) {
			return fmt.Errorf("line %d: bad sample name %q", ln, name)
		}
		for _, l := range labels {
			if !nameRe.MatchString(l.Key) {
				return fmt.Errorf("line %d: bad label name %q", ln, l.Key)
			}
		}
		key := canonical(name, labels)
		if seen[key] {
			return fmt.Errorf("line %d: duplicate series %q", ln, key)
		}
		seen[key] = true

		// Associate the sample with its declared family.
		if k, ok := fams[name]; ok {
			if k == "histogram" {
				return fmt.Errorf("line %d: bare sample %q for a histogram family", ln, name)
			}
			if k == "counter" && (val < 0 || val != math.Trunc(val)) {
				return fmt.Errorf("line %d: counter %q has non-integer value %v", ln, name, val)
			}
			continue
		}
		matched := false
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suf)
			if base == name {
				continue
			}
			agg, ok := hists[base]
			if !ok {
				continue
			}
			matched = true
			rest := labels[:0:0]
			var le float64
			hasLE := false
			for _, l := range labels {
				if suf == "_bucket" && l.Key == "le" {
					le, err = strconv.ParseFloat(l.Value, 64)
					if err != nil {
						return fmt.Errorf("line %d: bad le %q: %v", ln, l.Value, err)
					}
					hasLE = true
					continue
				}
				rest = append(rest, l)
			}
			bk := canonical(base, rest)
			switch suf {
			case "_bucket":
				if !hasLE {
					return fmt.Errorf("line %d: bucket sample without le", ln)
				}
				agg.buckets[bk] = append(agg.buckets[bk], struct{ le, v float64 }{le, val})
			case "_sum":
				agg.sums[bk] = true
			case "_count":
				agg.counts[bk] = val
			}
			break
		}
		if !matched {
			return fmt.Errorf("line %d: sample %q has no declared family", ln, name)
		}
	}

	for fam, agg := range hists {
		for bk, buckets := range agg.buckets {
			sort.Slice(buckets, func(a, b int) bool { return buckets[a].le < buckets[b].le })
			last := math.Inf(-1)
			prev := -1.0
			for _, b := range buckets {
				if b.v < prev {
					return fmt.Errorf("family %s series %s: bucket ladder not cumulative", fam, bk)
				}
				prev = b.v
				last = b.le
			}
			if !math.IsInf(last, 1) {
				return fmt.Errorf("family %s series %s: no le=\"+Inf\" bucket", fam, bk)
			}
			cnt, ok := agg.counts[bk]
			if !ok {
				return fmt.Errorf("family %s series %s: missing _count", fam, bk)
			}
			if cnt != buckets[len(buckets)-1].v {
				return fmt.Errorf("family %s series %s: _count %v != +Inf bucket %v",
					fam, bk, cnt, buckets[len(buckets)-1].v)
			}
			if !agg.sums[bk] {
				return fmt.Errorf("family %s series %s: missing _sum", fam, bk)
			}
		}
		for bk := range agg.counts {
			if _, ok := agg.buckets[bk]; !ok {
				return fmt.Errorf("family %s series %s: _count without buckets", fam, bk)
			}
		}
		for bk := range agg.sums {
			if _, ok := agg.buckets[bk]; !ok {
				return fmt.Errorf("family %s series %s: _sum without buckets", fam, bk)
			}
		}
	}
	return nil
}

// parseSampleLine parses `name[{labels}] value`.
func parseSampleLine(line string) (string, []Label, float64, error) {
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return "", nil, 0, fmt.Errorf("no separator in %q", line)
	}
	name := line[:i]
	var labels []Label
	pos := i
	if line[pos] == '{' {
		pos++
		for {
			if pos >= len(line) {
				return "", nil, 0, fmt.Errorf("unterminated label set in %q", line)
			}
			if line[pos] == '}' {
				pos++
				break
			}
			eq := strings.IndexByte(line[pos:], '=')
			if eq < 0 {
				return "", nil, 0, fmt.Errorf("label without '=' in %q", line)
			}
			key := line[pos : pos+eq]
			pos += eq + 1
			if pos >= len(line) || line[pos] != '"' {
				return "", nil, 0, fmt.Errorf("unquoted label value in %q", line)
			}
			pos++
			var val strings.Builder
			closed := false
			for pos < len(line) {
				c := line[pos]
				if c == '\\' {
					pos++
					if pos >= len(line) {
						return "", nil, 0, fmt.Errorf("dangling escape in %q", line)
					}
					switch line[pos] {
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					case 'n':
						val.WriteByte('\n')
					default:
						return "", nil, 0, fmt.Errorf("illegal escape \\%c in %q", line[pos], line)
					}
					pos++
					continue
				}
				if c == '"' {
					pos++
					closed = true
					break
				}
				val.WriteByte(c)
				pos++
			}
			if !closed {
				return "", nil, 0, fmt.Errorf("unterminated label value in %q", line)
			}
			labels = append(labels, Label{Key: key, Value: val.String()})
			if pos < len(line) && line[pos] == ',' {
				pos++
			}
		}
	}
	if pos >= len(line) || line[pos] != ' ' {
		return "", nil, 0, fmt.Errorf("missing value separator in %q", line)
	}
	v, err := strconv.ParseFloat(line[pos+1:], 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("bad value in %q: %v", line, err)
	}
	return name, labels, v, nil
}

// FuzzPrometheusText drives arbitrary registry construction (names,
// labels, kinds, bucket bounds, and values all from the fuzz input) and
// asserts the rendered exposition always satisfies validatePromText.
func FuzzPrometheusText(f *testing.F) {
	f.Add([]byte("\x00\x03req\x01\x01a\x02bc\x07"))
	f.Add([]byte("\x02\x04late\x00\x02\x10\x40\x03\x05\x50\x90"))
	f.Add([]byte("\x01\x05depth\x02\x02id\x017\x01k\x00\x42"))
	f.Add([]byte{2, 1, 'h', 0, 0, 3, 1, 2, 3, 0, 1, 'h', 1, 1, 'h', 2, 1, 'h', 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		readByte := func() byte {
			if pos >= len(data) {
				return 0
			}
			b := data[pos]
			pos++
			return b
		}
		readStr := func() string {
			n := int(readByte()) % 8
			end := pos + n
			if end > len(data) {
				end = len(data)
			}
			s := string(data[pos:end])
			pos = end
			return s
		}

		r := NewRegistry()
		declared := map[string]byte{} // sanitized family name -> kind byte
		occupied := map[string]bool{} // every name some family emits lines under
		for ops := 0; ops < 24 && pos < len(data); ops++ {
			k := readByte() % 3
			name := SanitizeName(readStr())
			emits := []string{name}
			if k == 2 {
				emits = []string{name + "_bucket", name + "_sum", name + "_count"}
			}
			if prev, ok := declared[name]; ok {
				if prev != k {
					continue // would panic by design; not what this fuzz probes
				}
			} else {
				// A new family's TYPE name and sample names must not
				// collide with any name already in use (e.g. a counter
				// literally named x_bucket vs histogram x).
				conflict := occupied[name]
				for _, e := range emits {
					if occupied[e] {
						conflict = true
					}
					if _, ok := declared[e]; ok {
						conflict = true
					}
				}
				if conflict {
					continue
				}
				declared[name] = k
				occupied[name] = true
				for _, e := range emits {
					occupied[e] = true
				}
			}
			var labels []Label
			for i := 0; i < int(readByte())%3; i++ {
				labels = append(labels, L(readStr(), readStr()))
			}
			switch k {
			case 0:
				r.Counter(name, labels...).Add(uint64(readByte()))
			case 1:
				r.Gauge(name, labels...).Set(int64(readByte()) - 128)
			case 2:
				var bounds []float64
				for i := 0; i < int(readByte())%4; i++ {
					bounds = append(bounds, float64(int(readByte())-100)/7)
				}
				h := r.Histogram(name, bounds, labels...)
				for i := 0; i < int(readByte())%5; i++ {
					h.Observe(float64(int(readByte())-100) / 3)
				}
			}
		}
		text := promText(r)
		if err := validatePromText(text); err != nil {
			t.Fatalf("invalid exposition: %v\n%s", err, text)
		}
	})
}

// FuzzHistogramObserve feeds arbitrary float64 bit patterns (including
// NaN, ±Inf, subnormals) through Observe and checks the structural
// invariants: no panic, bucket counts sum to the observation total, and
// quantile estimates are monotone in p.
func FuzzHistogramObserve(f *testing.F) {
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0, 0, 0, 0, 0, 0, 0, 0x40,
		0, 0, 0, 0, 0, 0, 0xf8, 0x7f})
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xef, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		nb := 0
		if len(data) > 0 {
			nb = int(data[0]) % 5
			data = data[1:]
		}
		var vals []float64
		for len(data) >= 8 {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(data[:8])))
			data = data[8:]
		}
		if nb > len(vals) {
			nb = len(vals)
		}
		bounds, observations := vals[:nb], vals[nb:]

		r := NewRegistry()
		h := r.Histogram("fuzz_seconds", bounds)
		for _, v := range observations {
			h.Observe(v)
		}
		s := h.Snapshot()
		var total uint64
		for _, c := range s.Counts {
			total += c
		}
		if total != uint64(len(observations)) || s.Count != uint64(len(observations)) {
			t.Fatalf("bucket sum %d / count %d, want %d observations",
				total, s.Count, len(observations))
		}
		p50, p95, p99 := s.Quantile(0.50), s.Quantile(0.95), s.Quantile(0.99)
		if p50 > p95 || p95 > p99 {
			t.Fatalf("quantiles not monotone: p50=%v p95=%v p99=%v", p50, p95, p99)
		}
		if err := validatePromText(promText(r)); err != nil {
			t.Fatalf("exposition after fuzz observations invalid: %v", err)
		}
	})
}
