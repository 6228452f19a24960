package obs

import (
	"bufio"
	"io"
	"math"
	"strconv"
)

// WritePrometheus writes every registered series in the Prometheus text
// exposition format (version 0.0.4): one # HELP / # TYPE header per
// family, histograms expanded into cumulative _bucket series with le
// labels plus _sum and _count. Families appear in registration order,
// series within a family in registration order — stable output for
// tests and diffing. This is the read path; it allocates.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	bw := bufio.NewWriter(w)
	for _, f := range r.families {
		if f.help != "" {
			bw.WriteString("# HELP " + f.name + " " + f.help + "\n")
		}
		bw.WriteString("# TYPE " + f.name + " " + f.typ + "\n")
		for _, s := range f.series {
			switch m := s.metric.(type) {
			case *Counter:
				writeSample(bw, f.name, s.labels, "", float64(m.Value()))
			case *Gauge:
				writeSample(bw, f.name, s.labels, "", float64(m.Value()))
			case observations:
				writeSample(bw, f.name, s.labels, "", float64(m.h.Count()))
			case *Histogram:
				snap := m.Snapshot()
				cum := uint64(0)
				for i, b := range snap.Bounds {
					cum += snap.Counts[i]
					writeSample(bw, f.name+"_bucket", s.labels,
						`le="`+formatFloat(b)+`"`, float64(cum))
				}
				writeSample(bw, f.name+"_bucket", s.labels, `le="+Inf"`, float64(snap.Count))
				writeSample(bw, f.name+"_sum", s.labels, "", snap.Sum)
				writeSample(bw, f.name+"_count", s.labels, "", float64(snap.Count))
			}
		}
	}
	return bw.Flush()
}

// writeSample emits one `name{labels,extra} value` line.
func writeSample(bw *bufio.Writer, name, labels, extra string, v float64) {
	bw.WriteString(name)
	if labels != "" || extra != "" {
		bw.WriteByte('{')
		bw.WriteString(labels)
		if labels != "" && extra != "" {
			bw.WriteByte(',')
		}
		bw.WriteString(extra)
		bw.WriteByte('}')
	}
	bw.WriteByte(' ')
	bw.WriteString(formatFloat(v))
	bw.WriteByte('\n')
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
