package obs

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4), stdlib only.
// Families are emitted in sorted name order with exactly one # TYPE
// line each; series within a family are sorted by label key. Counters
// and gauges emit one sample line; histograms emit the cumulative
// _bucket{le=...} ladder (ending at le="+Inf"), then _sum and _count.
// Metric names are already restricted to the legal alphabet by
// registration-time sanitizing; label values are escaped here.

// escapeLabelValue applies the text-format escapes: backslash, double
// quote, and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var sb strings.Builder
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteByte(v[i])
		}
	}
	return sb.String()
}

// formatFloat renders a sample value; Prometheus accepts Go's 'g'
// shortest representation, including NaN and +Inf spellings.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeLabels renders {k="v",...} including an extra le pair when
// leBound is non-empty.
func writeLabels(w *bufio.Writer, labels []Label, leBound string) {
	if len(labels) == 0 && leBound == "" {
		return
	}
	w.WriteByte('{')
	first := true
	for _, l := range labels {
		if !first {
			w.WriteByte(',')
		}
		first = false
		w.WriteString(l.Key)
		w.WriteString(`="`)
		w.WriteString(escapeLabelValue(l.Value))
		w.WriteByte('"')
	}
	if leBound != "" {
		if !first {
			w.WriteByte(',')
		}
		w.WriteString(`le="`)
		w.WriteString(leBound)
		w.WriteByte('"')
	}
	w.WriteByte('}')
}

// WritePrometheus renders the registry in the Prometheus text format.
// Output order is fully deterministic for a given registry content.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(a, b int) bool { return fams[a].name < fams[b].name })
	for _, f := range fams {
		bw.WriteString("# TYPE ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(f.kind.String())
		bw.WriteByte('\n')
		for _, s := range f.sorted() {
			switch f.kind {
			case kindCounter:
				bw.WriteString(f.name)
				writeLabels(bw, s.labels, "")
				bw.WriteByte(' ')
				bw.WriteString(strconv.FormatUint(s.c.Load(), 10))
				bw.WriteByte('\n')
			case kindGauge:
				bw.WriteString(f.name)
				writeLabels(bw, s.labels, "")
				bw.WriteByte(' ')
				bw.WriteString(strconv.FormatInt(s.g.Load(), 10))
				bw.WriteByte('\n')
			default:
				snap := s.h.Snapshot()
				var cum uint64
				for i, c := range snap.Counts {
					cum += c
					le := "+Inf"
					if i < len(snap.Bounds) {
						le = formatFloat(snap.Bounds[i])
					}
					bw.WriteString(f.name)
					bw.WriteString("_bucket")
					writeLabels(bw, s.labels, le)
					bw.WriteByte(' ')
					bw.WriteString(strconv.FormatUint(cum, 10))
					bw.WriteByte('\n')
				}
				bw.WriteString(f.name)
				bw.WriteString("_sum")
				writeLabels(bw, s.labels, "")
				bw.WriteByte(' ')
				bw.WriteString(formatFloat(snap.Sum))
				bw.WriteByte('\n')
				bw.WriteString(f.name)
				bw.WriteString("_count")
				writeLabels(bw, s.labels, "")
				bw.WriteByte(' ')
				bw.WriteString(strconv.FormatUint(snap.Count, 10))
				bw.WriteByte('\n')
			}
		}
	}
	return bw.Flush()
}
