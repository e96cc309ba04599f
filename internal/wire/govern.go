package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Govern frames: the binary twin of the daemon's POST /v1/monitors/{id}/govern
// streaming-control route. Same envelope idiom as the estimate frames with
// their own magics:
//
//	magic   "EMGQ" (request) / "EMGS" (response)
//
// Request payload (all integers uint32 LE unless noted, floats float64 LE):
//
//	flags     uint32   bit 0 = config present (reconfigure the governor)
//	if config present:
//	  policy    uint32   0 threshold, 1 hysteresis, 2 pi
//	  ceiling_c float64
//	  trip_c    float64  \
//	  set_c     float64  |
//	  clear_c   float64  | zero = derive from the ceiling
//	  target_c  float64  | (see internal/governor.Params)
//	  kp        float64  |
//	  ki        float64  /
//	  ladder_n  uint32   0 = default ladder
//	  ladder    ladder_n float64, strictly ascending in (0,1]
//	rows      uint32   snapshots in the batch
//	cols      uint32   readings per snapshot (rows > 0 needs cols > 0)
//	readings  rows×cols float64, row-major
//
// Response payload:
//
//	flags     uint32   bits 0–1 = quality (same encoding as EMRS)
//	ladder_n  uint32   the governor's active ladder
//	ladder    ladder_n float64
//	cores     uint32   governed cores
//	count     uint32   decisions (== request rows)
//	per decision:
//	  max_c    float64  estimated-map summary the decision was taken from
//	  min_c    float64
//	  mean_c   float64
//	  max_cell uint32
//	  levels   cores × uint8   per-core ladder level
//	snapshots uint64   cumulative snapshots governed by this governor
//	duty      float64  cumulative throttle duty over those snapshots
//
// Decoded values are bit-identical to the JSON route's, pinned by the
// cross-protocol parity test in cmd/emapsd.

const (
	governReqMagic  = "EMGQ"
	governRespMagic = "EMGS"

	flagGovernConfig = 1 << 0
)

// governPolicyNames maps the wire's policy ids onto registry names; the
// index IS the wire encoding.
var governPolicyNames = []string{"threshold", "hysteresis", "pi"}

// governPolicyID returns the wire id for a policy name.
func governPolicyID(name string) (uint32, error) {
	for i, n := range governPolicyNames {
		if n == name {
			return uint32(i), nil
		}
	}
	return 0, fmt.Errorf("wire: unknown govern policy %q", name)
}

// GovernConfig configures (or reconfigures) a monitor's governor. The JSON
// route decodes the same shape from the request's "config" object, so the
// two protocols share one struct. Zero-valued setpoints and gains derive
// from the ceiling exactly as internal/governor.Params documents.
type GovernConfig struct {
	Policy   string    `json:"policy"`
	CeilingC float64   `json:"ceiling_c"`
	Ladder   []float64 `json:"ladder,omitempty"`
	TripC    float64   `json:"trip_c,omitempty"`
	SetC     float64   `json:"set_c,omitempty"`
	ClearC   float64   `json:"clear_c,omitempty"`
	TargetC  float64   `json:"target_c,omitempty"`
	Kp       float64   `json:"kp,omitempty"`
	Ki       float64   `json:"ki,omitempty"`
}

// GovernRequest is the decoded form of a binary govern request.
type GovernRequest struct {
	// Readings is the rows×cols batch, as in EstimateRequest.
	Readings [][]float64
	// Config, when non-nil, (re)configures the monitor's governor before
	// this batch is governed. The first govern request must carry it.
	Config *GovernConfig
}

// GovernDecision is one snapshot's control outcome: the estimated-map digest
// the governor acted on plus its per-core cap decisions.
type GovernDecision struct {
	MaxC    float64 `json:"max_c"`
	MinC    float64 `json:"min_c"`
	MeanC   float64 `json:"mean_c"`
	MaxCell int     `json:"max_cell"`
	// Levels indexes the response ladder, one entry per governed core.
	Levels []int `json:"levels"`
}

// GovernResponse is the govern route's reply, shared by both protocols.
type GovernResponse struct {
	Quality   Quality          `json:"-"`
	Ladder    []float64        `json:"ladder"`
	Cores     int              `json:"cores"`
	Decisions []GovernDecision `json:"decisions"`
	// Snapshots and ThrottleDuty are cumulative over the governor's
	// lifetime (across requests), not just this batch.
	Snapshots    uint64  `json:"snapshots"`
	ThrottleDuty float64 `json:"throttle_duty"`
}

// AppendGovernRequest encodes req onto buf and returns the extended slice.
func AppendGovernRequest(buf []byte, req *GovernRequest) ([]byte, error) {
	rows := len(req.Readings)
	cols := 0
	if rows > 0 {
		cols = len(req.Readings[0])
	}
	for i, r := range req.Readings {
		if len(r) != cols {
			return nil, fmt.Errorf("wire: ragged batch (row %d has %d readings, row 0 has %d)", i, len(r), cols)
		}
	}
	var flags uint32
	var policy uint32
	if req.Config != nil {
		var err error
		if policy, err = governPolicyID(req.Config.Policy); err != nil {
			return nil, err
		}
		flags |= flagGovernConfig
	}
	payloadLen := 4 + 4 + 4 + 8*rows*cols
	if req.Config != nil {
		payloadLen += 4 + 7*8 + 4 + 8*len(req.Config.Ladder)
	}
	buf = appendHeader(buf, governReqMagic, payloadLen)
	payloadStart := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, flags)
	if c := req.Config; c != nil {
		buf = binary.LittleEndian.AppendUint32(buf, policy)
		buf = appendFloats(buf, []float64{c.CeilingC, c.TripC, c.SetC, c.ClearC, c.TargetC, c.Kp, c.Ki})
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.Ladder)))
		buf = appendFloats(buf, c.Ladder)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(rows))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(cols))
	for _, r := range req.Readings {
		buf = appendFloats(buf, r)
	}
	return appendCRC(buf, payloadStart), nil
}

// DecodeGovernRequest decodes one binary govern request. scratch may be nil;
// a pooled ReadingsBuf makes steady-state decodes allocation-free, exactly
// as for estimate requests.
func DecodeGovernRequest(data []byte, scratch *ReadingsBuf) (GovernRequest, error) {
	payload, err := checkEnvelope(data, governReqMagic, "govern request")
	if err != nil {
		return GovernRequest{}, err
	}
	if len(payload) < 4 {
		return GovernRequest{}, fmt.Errorf("wire: govern request payload %d bytes, want at least 4", len(payload))
	}
	flags := binary.LittleEndian.Uint32(payload[0:4])
	if flags&^uint32(flagGovernConfig) != 0 {
		return GovernRequest{}, fmt.Errorf("wire: unknown govern request flags %#x", flags)
	}
	off := 4
	var req GovernRequest
	if flags&flagGovernConfig != 0 {
		if len(payload)-off < 4+7*8+4 {
			return GovernRequest{}, fmt.Errorf("wire: govern request payload ends inside its config")
		}
		policy := binary.LittleEndian.Uint32(payload[off:])
		if policy >= uint32(len(governPolicyNames)) {
			return GovernRequest{}, fmt.Errorf("wire: govern policy id %d out of range", policy)
		}
		off += 4
		var ps [7]float64
		for i := range ps {
			ps[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[off:]))
			off += 8
		}
		ladderN := binary.LittleEndian.Uint32(payload[off:])
		off += 4
		if uint64(ladderN) > uint64(len(payload)-off)/8 {
			return GovernRequest{}, fmt.Errorf("wire: govern request claims a %d-level ladder beyond the payload", ladderN)
		}
		var ladder []float64
		if ladderN > 0 {
			ladder = make([]float64, ladderN)
			for i := range ladder {
				ladder[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[off:]))
				off += 8
			}
		}
		req.Config = &GovernConfig{
			Policy:   governPolicyNames[policy],
			CeilingC: ps[0], TripC: ps[1], SetC: ps[2], ClearC: ps[3],
			TargetC: ps[4], Kp: ps[5], Ki: ps[6],
			Ladder: ladder,
		}
	}
	if req.Readings, err = decodeBatch(payload[off:], scratch); err != nil {
		return GovernRequest{}, err
	}
	return req, nil
}

// AppendGovernResponse encodes resp onto buf and returns the extended slice.
// Every decision must carry exactly resp.Cores levels, each fitting a byte.
func AppendGovernResponse(buf []byte, resp *GovernResponse) ([]byte, error) {
	for i := range resp.Decisions {
		d := &resp.Decisions[i]
		if len(d.Levels) != resp.Cores {
			return nil, fmt.Errorf("wire: decision %d has %d levels for %d cores", i, len(d.Levels), resp.Cores)
		}
		for _, l := range d.Levels {
			if l < 0 || l > 0xff {
				return nil, fmt.Errorf("wire: decision %d level %d does not fit a byte", i, l)
			}
		}
	}
	payloadLen := 4 + 4 + 8*len(resp.Ladder) + 4 + 4 +
		len(resp.Decisions)*(8+8+8+4+resp.Cores) + 8 + 8
	buf = appendHeader(buf, governRespMagic, payloadLen)
	payloadStart := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(resp.Quality)&respQualityMask)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(resp.Ladder)))
	buf = appendFloats(buf, resp.Ladder)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(resp.Cores))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(resp.Decisions)))
	for i := range resp.Decisions {
		d := &resp.Decisions[i]
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(d.MaxC))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(d.MinC))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(d.MeanC))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(d.MaxCell))
		for _, l := range d.Levels {
			buf = append(buf, byte(l))
		}
	}
	buf = binary.LittleEndian.AppendUint64(buf, resp.Snapshots)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(resp.ThrottleDuty))
	return appendCRC(buf, payloadStart), nil
}

// DecodeGovernResponse decodes one binary govern response.
func DecodeGovernResponse(data []byte) (*GovernResponse, error) {
	payload, err := checkEnvelope(data, governRespMagic, "govern response")
	if err != nil {
		return nil, err
	}
	if len(payload) < 16 {
		return nil, fmt.Errorf("wire: govern response payload %d bytes, want at least 16", len(payload))
	}
	flags := binary.LittleEndian.Uint32(payload[0:4])
	if flags&^uint32(respQualityMask) != 0 {
		return nil, fmt.Errorf("wire: unknown govern response flags %#x", flags)
	}
	resp := &GovernResponse{Quality: Quality(flags & respQualityMask)}
	ladderN := binary.LittleEndian.Uint32(payload[4:8])
	off := 8
	// The 8 bytes reserved here are the cores and count words.
	if uint64(ladderN) > uint64(len(payload)-off-8)/8 {
		return nil, fmt.Errorf("wire: govern response claims a %d-level ladder beyond the payload", ladderN)
	}
	resp.Ladder = make([]float64, ladderN)
	for i := range resp.Ladder {
		resp.Ladder[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[off:]))
		off += 8
	}
	cores := binary.LittleEndian.Uint32(payload[off:])
	count := binary.LittleEndian.Uint32(payload[off+4:])
	off += 8
	decSize := 8 + 8 + 8 + 4 + uint64(cores)
	if uint64(count) > uint64(len(payload)-off)/decSize {
		return nil, fmt.Errorf("wire: %d govern decisions do not fit a %d-byte payload", count, len(payload))
	}
	resp.Cores = int(cores)
	resp.Decisions = make([]GovernDecision, count)
	for i := range resp.Decisions {
		d := &resp.Decisions[i]
		d.MaxC = math.Float64frombits(binary.LittleEndian.Uint64(payload[off:]))
		d.MinC = math.Float64frombits(binary.LittleEndian.Uint64(payload[off+8:]))
		d.MeanC = math.Float64frombits(binary.LittleEndian.Uint64(payload[off+16:]))
		d.MaxCell = int(binary.LittleEndian.Uint32(payload[off+24:]))
		off += 28
		d.Levels = make([]int, cores)
		for j := range d.Levels {
			d.Levels[j] = int(payload[off+j])
		}
		off += len(d.Levels)
	}
	if len(payload)-off != 16 {
		return nil, fmt.Errorf("wire: govern response trailer is %d bytes, want 16", len(payload)-off)
	}
	resp.Snapshots = binary.LittleEndian.Uint64(payload[off:])
	resp.ThrottleDuty = math.Float64frombits(binary.LittleEndian.Uint64(payload[off+8:]))
	return resp, nil
}
