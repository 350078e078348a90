package obs

import (
	"io"
	"strconv"
)

// WritePrometheus renders every registered family in Prometheus text
// exposition format (v0.0.4), in registration order: a # HELP and # TYPE
// line per family followed by its samples — one value for a counter or
// gauge; cumulative _bucket{le="…"} lines, _sum and _count for a histogram.
// The whole rendering reaches w in one Write.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := r.families[:len(r.families):len(r.families)]
	r.mu.Unlock()

	b := make([]byte, 0, 256*len(fams))
	var num [32]byte
	for _, f := range fams {
		typ := f.kind
		if typ == "float counter" {
			typ = "counter"
		}
		b = append(b, "# HELP "...)
		b = append(b, f.name...)
		b = append(b, ' ')
		b = append(b, f.help...)
		b = append(b, "\n# TYPE "...)
		b = append(b, f.name...)
		b = append(b, ' ')
		b = append(b, typ...)
		b = append(b, '\n')
		switch {
		case f.counter != nil:
			b = appendSample(b, f.name, "", strconv.AppendUint(num[:0], f.counter.Value(), 10))
		case f.gauge != nil:
			b = appendSample(b, f.name, "", appendFloat(num[:0], f.gauge.Value()))
		case f.hist != nil:
			b = f.hist.appendSamples(b, f.name)
		}
	}
	_, err := w.Write(b)
	return err
}

// appendSamples renders the histogram's bucket, sum and count lines under
// one lock, so a scrape sees a consistent snapshot.
func (h *Histogram) appendSamples(b []byte, name string) []byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	var num [32]byte
	var cum uint64
	for i, c := range h.counts {
		cum += c
		b = append(b, name...)
		b = append(b, `_bucket{le="`...)
		if i < len(h.bounds) {
			b = appendFloat(b, h.bounds[i])
		} else {
			b = append(b, "+Inf"...)
		}
		b = append(b, `"} `...)
		b = strconv.AppendUint(b, cum, 10)
		b = append(b, '\n')
	}
	b = appendSample(b, name, "_sum", appendFloat(num[:0], h.sum))
	return appendSample(b, name, "_count", strconv.AppendUint(num[:0], h.total, 10))
}

// appendSample appends one "name+suffix value" line.
func appendSample(b []byte, name, suffix string, val []byte) []byte {
	b = append(b, name...)
	b = append(b, suffix...)
	b = append(b, ' ')
	b = append(b, val...)
	return append(b, '\n')
}

// appendFloat renders v the way Prometheus expects: the shortest
// round-trippable form.
func appendFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}
