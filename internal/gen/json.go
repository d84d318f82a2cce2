package gen

import (
	"encoding/json"
	"fmt"
	"io"

	"overcell/internal/floorplan"
	"overcell/internal/netlist"
)

// The JSON schema for instances: a flat description of the floorplan
// and netlist that round-trips through Instance. Pin references name
// cells by their unique names.

type jsonInstance struct {
	Name          string    `json:"name"`
	Margin        int       `json:"margin"`
	M12Pitch      int       `json:"m12_pitch"`
	M34Pitch      int       `json:"m34_pitch"`
	RailHalfWidth int       `json:"rail_half_width,omitempty"`
	Rows          []jsonRow `json:"rows"`
	Nets          []jsonNet `json:"nets"`
}

type jsonRow struct {
	Gap   int        `json:"gap"`
	Cells []jsonCell `json:"cells"`
}

type jsonCell struct {
	Name      string `json:"name"`
	W         int    `json:"w"`
	H         int    `json:"h"`
	Sensitive bool   `json:"sensitive,omitempty"`
}

type jsonNet struct {
	Name        string    `json:"name"`
	Class       string    `json:"class"`
	Criticality int       `json:"criticality,omitempty"`
	Pins        []jsonPin `json:"pins"`
}

type jsonPin struct {
	Cell string `json:"cell"`
	Name string `json:"name"`
	DX   int    `json:"dx"`
	Side string `json:"side"` // "top" or "bottom"
}

var classNames = map[netlist.Class]string{
	netlist.Signal:   "signal",
	netlist.Critical: "critical",
	netlist.Timing:   "timing",
	netlist.Power:    "power",
	netlist.Ground:   "ground",
}

var classValues = map[string]netlist.Class{
	"signal": netlist.Signal, "critical": netlist.Critical,
	"timing": netlist.Timing, "power": netlist.Power, "ground": netlist.Ground,
}

// WriteJSON serialises the instance, indented for people to read.
func (inst *Instance) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(inst.document())
}

// document builds the instance's JSON document. Rows, cells, nets and
// pins keep their stored order, so the document is a function of the
// instance.
func (inst *Instance) document() jsonInstance {
	out := jsonInstance{
		Name:          inst.Name,
		Margin:        inst.Layout.Margin,
		M12Pitch:      inst.Layout.Tech.M12Pitch,
		M34Pitch:      inst.Layout.Tech.M34Pitch,
		RailHalfWidth: inst.RailHalfWidth,
	}
	for _, r := range inst.Layout.Rows {
		jr := jsonRow{Gap: r.Gap}
		for _, c := range r.Cells {
			jr.Cells = append(jr.Cells, jsonCell{Name: c.Name, W: c.W, H: c.H, Sensitive: c.Sensitive})
		}
		out.Rows = append(out.Rows, jr)
	}
	for _, s := range inst.Nets {
		jn := jsonNet{Name: s.Name, Class: classNames[s.Class], Criticality: s.Criticality}
		for _, p := range s.Pins {
			side := "top"
			if p.Side == floorplan.PinBottom {
				side = "bottom"
			}
			jn.Pins = append(jn.Pins, jsonPin{Cell: p.Cell().Name, Name: p.Name, DX: p.DX, Side: side})
		}
		out.Nets = append(out.Nets, jn)
	}
	return out
}

// ReadJSON deserialises an instance. The result is placed with
// zero-height channels so pin positions resolve immediately.
func ReadJSON(r io.Reader) (*Instance, error) {
	var in jsonInstance
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("gen: decode instance: %w", err)
	}
	tech := floorplan.Tech{M12Pitch: in.M12Pitch, M34Pitch: in.M34Pitch}
	if in.M12Pitch == 0 && in.M34Pitch == 0 {
		tech = floorplan.DefaultTech()
	}
	l := floorplan.New(tech, in.Margin)
	inst := &Instance{Name: in.Name, Layout: l, RailHalfWidth: in.RailHalfWidth}
	cellsByName := map[string]*floorplan.Cell{}
	for ri, jr := range in.Rows {
		row := l.AddRow(jr.Gap)
		for _, jc := range jr.Cells {
			if _, dup := cellsByName[jc.Name]; dup {
				return nil, fmt.Errorf("gen: duplicate cell name %q", jc.Name)
			}
			c := row.AddCell(jc.Name, jc.W, jc.H)
			c.Sensitive = jc.Sensitive
			cellsByName[jc.Name] = c
			_ = ri
		}
	}
	if err := l.Place(make([]int, l.NumChannels())); err != nil {
		return nil, err
	}
	for _, jn := range in.Nets {
		class, ok := classValues[jn.Class]
		if !ok {
			return nil, fmt.Errorf("gen: net %q has unknown class %q", jn.Name, jn.Class)
		}
		spec := NetSpec{Name: jn.Name, Class: class, Criticality: jn.Criticality}
		for _, jp := range jn.Pins {
			c, ok := cellsByName[jp.Cell]
			if !ok {
				return nil, fmt.Errorf("gen: net %q references unknown cell %q", jn.Name, jp.Cell)
			}
			side := floorplan.PinTop
			switch jp.Side {
			case "top":
			case "bottom":
				side = floorplan.PinBottom
			default:
				return nil, fmt.Errorf("gen: net %q pin on cell %q has bad side %q",
					jn.Name, jp.Cell, jp.Side)
			}
			spec.Pins = append(spec.Pins, c.AddPin(jp.Name, jp.DX, side))
		}
		inst.Nets = append(inst.Nets, spec)
	}
	return inst, nil
}
