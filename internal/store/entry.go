package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/iloc"
	"repro/internal/target"
)

// The disk tier stores one finished allocation per file. An entry is a
// fixed binary header followed by three length-framed sections:
//
//	magic   [8]byte  "RALCST01"
//	version uint32   entryVersion
//	sum     [32]byte sha256 of the three sections, concatenated
//	optLen  uint32   length of the canonical options key
//	metaLen uint32   length of the metadata JSON
//	codeLen uint32   length of the allocated routine text
//	<options key> <meta JSON> <allocated routine, iloc.Print form>
//
// The code section is the routine's canonical printed form — the same
// bytes a response body carries — so a warm hit is byte-identical to
// the cold allocation that produced it. Everything iloc.Print does not
// carry (frame size, caller-save counts, the iteration statistics, the
// machine) rides in the metadata JSON and is restored after parsing.
// The iteration statistics keep every count but no pass wall time, so
// two cold allocations of one key write byte-identical entries.
//
// Every read re-hashes the sections against the header's sum: a
// truncated, bit-flipped or torn entry fails validation and is treated
// as a miss (and quarantined by the disk tier), never served. A header
// with the wrong magic or version fails the same way, so a format
// change never misdecodes old files.

const (
	entryMagic   = "RALCST01"
	entryVersion = 1
	headerSize   = 8 + 4 + sha256.Size + 4 + 4 + 4
	// maxSection bounds each section length on decode so a corrupt
	// header cannot drive a huge allocation.
	maxSection = 1 << 30
)

// entryMeta is the JSON metadata section: the Result fields (and
// Routine fields) that the printed code does not carry. Entries written
// before PassStat became the only timing record also carry a "Times"
// object per iteration, which decoding ignores, and entries written
// before pass times were dropped a "Time" per pass, which decodes as
// written.
type entryMeta struct {
	Name          string                `json:"name"`
	Strategy      string                `json:"strategy,omitempty"`
	SpilledRanges int                   `json:"spilled_ranges,omitempty"`
	RematSpills   int                   `json:"remat_spills,omitempty"`
	Degraded      bool                  `json:"degraded,omitempty"`
	DegradeReason string                `json:"degrade_reason,omitempty"`
	Iterations    []core.IterationStats `json:"iterations,omitempty"`
	Machine       *target.Machine       `json:"machine,omitempty"`
	Allocated     bool                  `json:"allocated"`
	FrameWords    int                   `json:"frame_words"`
	CallerSave    [iloc.NumClasses]int  `json:"caller_save"`
	NextReg       [iloc.NumClasses]int  `json:"next_reg"`
}

// encodeResult renders a finished allocation as one self-validating
// entry. optionsKey is the canonical options rendering that fed the
// content hash (informational: inspect shows it; the file name is the
// hash itself).
func encodeResult(res *core.Result, optionsKey string) ([]byte, error) {
	if res == nil || res.Routine == nil {
		return nil, fmt.Errorf("store: cannot encode a result without a routine")
	}
	meta := entryMeta{
		Name:          res.Routine.Name,
		Strategy:      res.Strategy,
		SpilledRanges: res.SpilledRanges,
		RematSpills:   res.RematSpills,
		Degraded:      res.Degraded,
		DegradeReason: res.DegradeReason,
		Iterations:    withoutTimes(res.Iterations),
		Machine:       res.Machine,
		Allocated:     res.Routine.Allocated,
		FrameWords:    res.Routine.FrameWords,
		CallerSave:    res.Routine.CallerSave,
		NextReg:       res.Routine.NextReg,
	}
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("store: encode meta: %w", err)
	}
	return frameEntry([]byte(optionsKey), metaJSON, []byte(iloc.Print(res.Routine))), nil
}

// withoutTimes copies iterations with every pass's wall time zeroed.
func withoutTimes(iterations []core.IterationStats) []core.IterationStats {
	out := make([]core.IterationStats, len(iterations))
	for i, it := range iterations {
		it.Passes = slices.Clone(it.Passes)
		for j := range it.Passes {
			it.Passes[j].Time = 0
		}
		out[i] = it
	}
	return out
}

// frameEntry lays out the header and the three sections.
func frameEntry(opt, metaJSON, code []byte) []byte {
	h := sha256.New()
	h.Write(opt)
	h.Write(metaJSON)
	h.Write(code)

	buf := make([]byte, 0, headerSize+len(opt)+len(metaJSON)+len(code))
	buf = append(buf, entryMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, entryVersion)
	buf = h.Sum(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(opt)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(metaJSON)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(code)))
	buf = append(buf, opt...)
	buf = append(buf, metaJSON...)
	buf = append(buf, code...)
	return buf
}

// decodedEntry is a validated, parsed entry.
type decodedEntry struct {
	OptionsKey string
	Meta       entryMeta
	Code       []byte
}

// decodeEntry validates and splits an entry's bytes. Any deviation —
// wrong magic, unknown version, truncation, trailing garbage, a hash
// mismatch, undecodable metadata — is an error; the caller treats it
// as corruption.
func decodeEntry(data []byte) (*decodedEntry, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("store: entry truncated: %d bytes, want at least %d", len(data), headerSize)
	}
	if string(data[:8]) != entryMagic {
		return nil, fmt.Errorf("store: bad entry magic %q", data[:8])
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != entryVersion {
		return nil, fmt.Errorf("store: unsupported entry version %d (want %d)", v, entryVersion)
	}
	sum := data[12 : 12+sha256.Size]
	optLen := binary.LittleEndian.Uint32(data[44:48])
	metaLen := binary.LittleEndian.Uint32(data[48:52])
	codeLen := binary.LittleEndian.Uint32(data[52:56])
	if optLen > maxSection || metaLen > maxSection || codeLen > maxSection {
		return nil, fmt.Errorf("store: entry section length out of range")
	}
	want := int64(headerSize) + int64(optLen) + int64(metaLen) + int64(codeLen)
	if int64(len(data)) != want {
		return nil, fmt.Errorf("store: entry size %d does not match header (%d)", len(data), want)
	}
	payload := data[headerSize:]
	got := sha256.Sum256(payload)
	if !bytes.Equal(got[:], sum) {
		return nil, fmt.Errorf("store: entry hash mismatch (corrupt payload)")
	}
	opt := payload[:optLen]
	metaJSON := payload[optLen : optLen+metaLen]
	code := payload[optLen+metaLen:]
	var meta entryMeta
	if err := json.Unmarshal(metaJSON, &meta); err != nil {
		return nil, fmt.Errorf("store: entry meta: %w", err)
	}
	return &decodedEntry{OptionsKey: string(opt), Meta: meta, Code: code}, nil
}

// check reports metadata that contradicts the parsed code it restores
// onto. The payload hash is not a MAC, so a hash-valid entry from a
// peer's bundle can carry any metadata; an interpreter sizes its
// register file from NextReg and its frame from FrameWords, so a
// contradiction here would crash it rather than fail one routine.
// Parameters keep their virtual names in allocated code (getparam
// reads by index), so only the instructions' registers must fit.
func (m *entryMeta) check(rt *iloc.Routine) error {
	if m.FrameWords < 0 {
		return fmt.Errorf("store: entry meta: negative frame size %d", m.FrameWords)
	}
	var named [iloc.NumClasses]int
	note := func(r iloc.Reg) {
		if r.Valid() && int(r.N) >= named[r.Class] {
			named[r.Class] = int(r.N) + 1
		}
	}
	rt.ForEachInstr(func(_ *iloc.Block, _ int, in *iloc.Instr) {
		note(in.Def())
		for _, r := range rt.Uses(in) {
			note(r)
		}
	})
	for c := iloc.Class(0); c < iloc.NumClasses; c++ {
		if m.NextReg[c] < named[c] {
			return fmt.Errorf("store: entry meta: %s register bank of %d below the %d the code names",
				c, m.NextReg[c], named[c])
		}
		if m.NextReg[c] > target.MaxRegs {
			return fmt.Errorf("store: entry meta: %s register bank of %d exceeds %d", c, m.NextReg[c], target.MaxRegs)
		}
		if bank := max(m.NextReg[c], 1); m.CallerSave[c] < 0 || m.CallerSave[c] >= bank {
			return fmt.Errorf("store: entry meta: %s caller-save count %d outside the bank of %d", c, m.CallerSave[c], bank)
		}
	}
	return nil
}

// result reconstructs the core.Result an entry encodes. The routine is
// re-parsed from its printed form, the print-invisible fields restored
// from the metadata once they agree with the code, and the whole
// verified, so the caller gets exactly what the cold allocation
// returned — including byte-identical iloc.Print output.
func (e *decodedEntry) result() (*core.Result, error) {
	rt, err := iloc.Parse(string(e.Code))
	if err != nil {
		return nil, fmt.Errorf("store: entry code: %w", err)
	}
	if err := e.Meta.check(rt); err != nil {
		return nil, err
	}
	rt.Allocated = e.Meta.Allocated
	rt.FrameWords = e.Meta.FrameWords
	rt.CallerSave = e.Meta.CallerSave
	rt.NextReg = e.Meta.NextReg
	if err := iloc.Verify(rt, false); err != nil {
		return nil, fmt.Errorf("store: entry code: %w", err)
	}
	return &core.Result{
		Routine:       rt,
		Iterations:    e.Meta.Iterations,
		SpilledRanges: e.Meta.SpilledRanges,
		RematSpills:   e.Meta.RematSpills,
		Strategy:      e.Meta.Strategy,
		Machine:       e.Meta.Machine,
		Degraded:      e.Meta.Degraded,
		DegradeReason: e.Meta.DegradeReason,
	}, nil
}
