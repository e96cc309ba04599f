package drift

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"time"
)

// FaultKind names one injectable failure mode.
type FaultKind int

// Injectable fault kinds.
const (
	// FaultStuck freezes one sensor: it keeps reporting the first value it
	// saw (or a pinned value) regardless of the true temperature.
	FaultStuck FaultKind = iota
	// FaultDrop zeroes each reading independently with a fixed probability —
	// telemetry dropout.
	FaultDrop
	// FaultOffset adds a constant bias to one sensor — a miscalibrated or
	// self-heating sensor.
	FaultOffset
	// FaultDrift is a workload-regime switch, not a sensor fault: traffic
	// generated from one workload family switches to another at a set time.
	// Apply ignores it; generators consult Workload.
	FaultDrift
)

// Fault is one parsed fault-spec entry.
type Fault struct {
	Kind   FaultKind
	Sensor int           // stuck, offset: position in the reading vector
	Value  float64       // stuck: pinned reading (NaN = freeze first seen)
	Rate   float64       // drop: per-reading probability
	Offset float64       // offset: added bias, °C
	From   string        // drift: workload family before the switch
	To     string        // drift: workload family after the switch
	At     time.Duration // drift: when the switch happens
}

// ParseFaults parses a comma-separated fault spec, e.g.
//
//	stuck:3  stuck:3:85.5  drop:0.01  offset:2:+5  drift:web->compute@30s
//
// (the arrow in drift entries may be spelled "->" or "→"). An empty spec
// yields no faults.
func ParseFaults(spec string) ([]Fault, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var out []Fault
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		kind, rest, ok := strings.Cut(entry, ":")
		if !ok {
			return nil, fmt.Errorf("drift: fault %q: want kind:args", entry)
		}
		switch kind {
		case "stuck":
			idxStr, valStr, hasVal := strings.Cut(rest, ":")
			idx, err := strconv.Atoi(idxStr)
			if err != nil || idx < 0 {
				return nil, fmt.Errorf("drift: fault %q: bad sensor index %q", entry, idxStr)
			}
			f := Fault{Kind: FaultStuck, Sensor: idx, Value: math.NaN()}
			if hasVal {
				v, err := strconv.ParseFloat(valStr, 64)
				if err != nil {
					return nil, fmt.Errorf("drift: fault %q: bad pinned value %q", entry, valStr)
				}
				f.Value = v
			}
			out = append(out, f)
		case "drop":
			rate, err := strconv.ParseFloat(rest, 64)
			if err != nil || rate <= 0 || rate > 1 {
				return nil, fmt.Errorf("drift: fault %q: drop rate must be in (0,1]", entry)
			}
			out = append(out, Fault{Kind: FaultDrop, Rate: rate})
		case "offset":
			idxStr, offStr, ok := strings.Cut(rest, ":")
			if !ok {
				return nil, fmt.Errorf("drift: fault %q: want offset:sensor:delta", entry)
			}
			idx, err := strconv.Atoi(idxStr)
			if err != nil || idx < 0 {
				return nil, fmt.Errorf("drift: fault %q: bad sensor index %q", entry, idxStr)
			}
			off, err := strconv.ParseFloat(offStr, 64)
			if err != nil {
				return nil, fmt.Errorf("drift: fault %q: bad offset %q", entry, offStr)
			}
			out = append(out, Fault{Kind: FaultOffset, Sensor: idx, Offset: off})
		case "drift":
			body, atStr, ok := strings.Cut(rest, "@")
			if !ok {
				return nil, fmt.Errorf("drift: fault %q: want drift:from->to@duration", entry)
			}
			body = strings.ReplaceAll(body, "→", "->")
			from, to, ok := strings.Cut(body, "->")
			if !ok || from == "" || to == "" {
				return nil, fmt.Errorf("drift: fault %q: want drift:from->to@duration", entry)
			}
			at, err := time.ParseDuration(atStr)
			if err != nil || at < 0 {
				return nil, fmt.Errorf("drift: fault %q: bad switch time %q", entry, atStr)
			}
			out = append(out, Fault{Kind: FaultDrift, From: from, To: to, At: at})
		default:
			return nil, fmt.Errorf("drift: unknown fault kind %q (want stuck, drop, offset or drift)", kind)
		}
	}
	return out, nil
}

// Injector applies parsed sensor faults to reading vectors, deterministically
// under a seed, so the load generator and the simulator corrupt traffic
// reproducibly. It is not safe for concurrent use; give each goroutine its
// own (the load generator gives each worker one with a distinct seed).
type Injector struct {
	faults []Fault
	rng    *rand.Rand
	held   map[int]float64 // stuck sensors frozen at first observed value
}

// NewInjector builds an injector over the parsed faults. The same faults,
// seed and call sequence always corrupt identically.
func NewInjector(faults []Fault, seed int64) *Injector {
	return &Injector{
		faults: append([]Fault(nil), faults...),
		rng:    rand.New(rand.NewSource(seed)),
		held:   make(map[int]float64),
	}
}

// Apply corrupts one reading vector in place according to the sensor faults
// (drift entries are regime switches, not corruption — see Workload).
// Out-of-range sensor indices are ignored so one injector serves monitors of
// any M.
func (in *Injector) Apply(readings []float64) {
	for _, f := range in.faults {
		switch f.Kind {
		case FaultStuck:
			if f.Sensor >= len(readings) {
				continue
			}
			v := f.Value
			if math.IsNaN(v) {
				held, ok := in.held[f.Sensor]
				if !ok {
					held = readings[f.Sensor]
					in.held[f.Sensor] = held
				}
				v = held
			}
			readings[f.Sensor] = v
		case FaultDrop:
			for i := range readings {
				if in.rng.Float64() < f.Rate {
					readings[i] = 0
				}
			}
		case FaultOffset:
			if f.Sensor >= len(readings) {
				continue
			}
			readings[f.Sensor] += f.Offset
		}
	}
}

// Workload resolves the active workload family at elapsed time into a run:
// the To family once a drift entry's switch time has passed, the From family
// before it. ok is false when the spec carries no drift entry (the caller
// keeps its default traffic).
func (in *Injector) Workload(elapsed time.Duration) (family string, ok bool) {
	for _, f := range in.faults {
		if f.Kind != FaultDrift {
			continue
		}
		if elapsed >= f.At {
			return f.To, true
		}
		return f.From, true
	}
	return "", false
}
