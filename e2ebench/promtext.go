package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// promSnapshot is one scrape of the daemon's GET /metrics: every sample of
// the Prometheus text exposition, keyed by its series name plus its labels
// in sorted order (see seriesKey).
type promSnapshot map[string]float64

// seriesKey renders a series identity canonically: name{k1="v1",k2="v2"}
// with labels sorted by key, or the bare name without labels. labels are
// key, value pairs.
func seriesKey(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(p.v)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// parseProm parses the text exposition format: comment and blank lines are
// skipped, every other line is `name[{labels}] value [timestamp]`. Label
// values may carry \" \\ and \n escapes.
func parseProm(text string) (promSnapshot, error) {
	snap := promSnapshot{}
	for lineNo, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		key, rest, err := parseSeries(line)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", lineNo+1, err)
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics line %d: no value", lineNo+1)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", lineNo+1, err)
		}
		snap[key] = v
	}
	return snap, nil
}

// parseSeries splits one sample line into its canonical series key and the
// remainder (value and optional timestamp).
func parseSeries(line string) (key, rest string, err error) {
	end := strings.IndexAny(line, "{ \t")
	if end < 0 {
		return "", "", fmt.Errorf("no value in %q", line)
	}
	name := line[:end]
	if name == "" {
		return "", "", fmt.Errorf("empty series name in %q", line)
	}
	if line[end] != '{' {
		return name, line[end:], nil
	}
	var labels []string
	i := end + 1
	for {
		for i < len(line) && (line[i] == ' ' || line[i] == ',') {
			i++
		}
		if i < len(line) && line[i] == '}' {
			i++
			break
		}
		eq := strings.IndexByte(line[i:], '=')
		if eq < 0 {
			return "", "", fmt.Errorf("label without value in %q", line)
		}
		k := strings.TrimSpace(line[i : i+eq])
		i += eq + 1
		if i >= len(line) || line[i] != '"' {
			return "", "", fmt.Errorf("unquoted label value in %q", line)
		}
		i++
		var v strings.Builder
		closed := false
		for i < len(line) {
			c := line[i]
			i++
			if c == '"' {
				closed = true
				break
			}
			if c == '\\' && i < len(line) {
				switch line[i] {
				case 'n':
					v.WriteByte('\n')
				default:
					v.WriteByte(line[i])
				}
				i++
				continue
			}
			v.WriteByte(c)
		}
		if !closed {
			return "", "", fmt.Errorf("unterminated label value in %q", line)
		}
		labels = append(labels, k, v.String())
	}
	return seriesKey(name, labels...), line[i:], nil
}

// value returns one sample (0 when the series is absent: counters and
// histograms the daemon has not touched yet are simply not exposed).
func (s promSnapshot) value(name string, labels ...string) float64 {
	return s[seriesKey(name, labels...)]
}

// delta returns after − before for every series in s (the later scrape).
// Counters and histogram sums/counts only grow, so the delta is the
// activity between the two scrapes.
func (s promSnapshot) delta(before promSnapshot) promSnapshot {
	d := make(promSnapshot, len(s))
	for k, v := range s {
		d[k] = v - before[k]
	}
	return d
}

// histMean returns a histogram's mean observation in milliseconds over the
// samples in s (a delta or a cumulative scrape), and the sample count.
func (s promSnapshot) histMean(name, labelKey, labelVal string) (meanMS float64, count float64) {
	count = s.value(name+"_count", labelKey, labelVal)
	if count == 0 {
		return 0, 0
	}
	return 1000 * s.value(name+"_sum", labelKey, labelVal) / count, count
}
