package basis

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/floorplan"
	"repro/internal/mat"
)

// Binary basis format: magic, version, name, grid, K, then mean, importance
// and the basis matrix. Training at paper scale costs minutes; serialization
// lets deployments train once and ship the basis.
const (
	basisMagic   = "EMBS"
	basisVersion = uint32(1)
)

// Save writes the basis in the library's binary format.
func (b *Basis) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(basisMagic); err != nil {
		return err
	}
	name := []byte(b.Name)
	if len(name) > 255 {
		name = name[:255]
	}
	header := []uint32{basisVersion, uint32(len(name)), uint32(b.Grid.W), uint32(b.Grid.H), uint32(b.KMax())}
	for _, v := range header {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if _, err := bw.Write(name); err != nil {
		return err
	}
	for _, payload := range [][]float64{b.Mean, b.Importance, b.Psi.Data()} {
		if err := binary.Write(bw, binary.LittleEndian, payload); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// headerSize is the fixed part of the format: magic plus five uint32s
// (version, name length, W, H, K).
const headerSize = 4 + 5*4

// Decode parses a basis written by Save. data must hold exactly one basis.
// The declared shape is checked against len(data) in 64-bit arithmetic
// before anything is allocated, so a forged header cannot drive an
// allocation larger than the bytes it came with.
func Decode(data []byte) (*Basis, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("basis: %d bytes is shorter than the %d-byte header", len(data), headerSize)
	}
	if string(data[:4]) != basisMagic {
		return nil, fmt.Errorf("basis: bad magic %q", data[:4])
	}
	u32 := func(i int) uint32 { return binary.LittleEndian.Uint32(data[4+4*i:]) }
	ver, nameLen, w, h, k := u32(0), u32(1), u32(2), u32(3), u32(4)
	if ver != basisVersion {
		return nil, fmt.Errorf("basis: unsupported version %d", ver)
	}
	if w == 0 || h == 0 || k == 0 || nameLen > 255 {
		return nil, fmt.Errorf("basis: implausible header W=%d H=%d K=%d nameLen=%d", w, h, k, nameLen)
	}
	// Bound the shape by the floats actually present before multiplying it
	// out: n·k ≤ avail then holds without overflow, on 32-bit too.
	n, kk := uint64(w)*uint64(h), uint64(k)
	avail := uint64(len(data)-headerSize) / 8
	if n > avail || kk > avail/n {
		return nil, fmt.Errorf("basis: header W=%d H=%d K=%d needs more than the %d bytes present", w, h, k, len(data))
	}
	if want := uint64(headerSize) + uint64(nameLen) + 8*(n+kk+n*kk); uint64(len(data)) != want {
		return nil, fmt.Errorf("basis: %d bytes for a %d-byte W=%d H=%d K=%d basis", len(data), want, w, h, k)
	}
	off := headerSize
	name := string(data[off : off+int(nameLen)])
	off += int(nameLen)
	floats := func(count int) []float64 {
		out := make([]float64, count)
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[off+8*i:]))
		}
		off += 8 * count
		return out
	}
	grid := floorplan.Grid{W: int(w), H: int(h)}
	mean := floats(grid.N())
	imp := floats(int(k))
	psi := floats(grid.N() * int(k))
	return &Basis{
		Name:       name,
		Grid:       grid,
		Mean:       mean,
		Psi:        mat.NewFromData(grid.N(), int(k), psi),
		Importance: imp,
	}, nil
}
