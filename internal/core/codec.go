package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"slices"

	"prmsel/internal/bayesnet"
)

// prmDTO is the wire form of a PRM.
type prmDTO struct {
	Vars      []Var
	Parents   [][]int
	Tables    map[int]*bayesnet.TableCPD
	Trees     map[int]*bayesnet.TreeCPD
	TableSize map[string]int64
	Strata    []string
}

// Encode writes the model to w in gob form, so a model constructed offline
// can be shipped to the query optimizer that uses it online.
func (m *PRM) Encode(w io.Writer) error {
	ep := m.params()
	dto := prmDTO{
		Vars:      m.vars,
		Parents:   m.parents,
		Tables:    make(map[int]*bayesnet.TableCPD),
		Trees:     make(map[int]*bayesnet.TreeCPD),
		TableSize: ep.tableSize,
		Strata:    m.strata,
	}
	for id, c := range ep.cpds {
		switch c := c.(type) {
		case *bayesnet.TableCPD:
			dto.Tables[id] = c
		case *bayesnet.TreeCPD:
			dto.Trees[id] = c
		case nil:
			return fmt.Errorf("core: encode: variable %s has no CPD", m.vars[id].Name())
		default:
			return fmt.Errorf("core: encode: unsupported CPD kind %q", c.Kind())
		}
	}
	return gob.NewEncoder(w).Encode(dto)
}

// Decode reads a model previously written by Encode and validates it.
// Every variable's parents must be in range and distinct, and its CPD
// must pass bayesnet.CheckCPD; then Validate checks the structure. So
// corrupt or adversarial bytes yield an error, never a model whose
// estimates panic or come from rows that are not distributions.
func Decode(r io.Reader) (*PRM, error) {
	var dto prmDTO
	if err := gob.NewDecoder(r).Decode(&dto); err != nil {
		return nil, fmt.Errorf("core: decode: %w", err)
	}
	// Index-shaped fields must be proven in range before anything indexes
	// with them — a corrupt stream must fail with an error, never a panic.
	if len(dto.Parents) != len(dto.Vars) {
		return nil, fmt.Errorf("core: decode: %d parent sets for %d variables", len(dto.Parents), len(dto.Vars))
	}
	cpds := make([]bayesnet.CPD, len(dto.Vars))
	for id, c := range dto.Tables {
		if id < 0 || id >= len(cpds) {
			return nil, fmt.Errorf("core: decode: CPD for unknown variable %d", id)
		}
		cpds[id] = c
	}
	for id, c := range dto.Trees {
		if id < 0 || id >= len(cpds) {
			return nil, fmt.Errorf("core: decode: CPD for unknown variable %d", id)
		}
		cpds[id] = c
	}
	for id, v := range dto.Vars {
		cards := make([]int, len(dto.Parents[id]))
		for i, p := range dto.Parents[id] {
			if p < 0 || p >= len(dto.Vars) {
				return nil, fmt.Errorf("core: decode: variable %s has out-of-range parent %d", v.Name(), p)
			}
			if slices.Contains(dto.Parents[id][:i], p) {
				return nil, fmt.Errorf("core: decode: variable %s has duplicate parent %s", v.Name(), dto.Vars[p].Name())
			}
			cards[i] = dto.Vars[p].Card
		}
		if err := bayesnet.CheckCPD(cpds[id], v.Card, cards); err != nil {
			return nil, fmt.Errorf("core: decode: variable %s: %w", v.Name(), err)
		}
	}
	tableSize := dto.TableSize
	if tableSize == nil {
		tableSize = make(map[string]int64)
	}
	for t, n := range tableSize {
		if n < 0 {
			return nil, fmt.Errorf("core: decode: table %s has table size %d", t, n)
		}
	}
	m := &PRM{
		vars:    dto.Vars,
		index:   make(map[string]int, len(dto.Vars)),
		parents: dto.Parents,
		strata:  dto.Strata,
	}
	for id, v := range dto.Vars {
		m.index[v.Name()] = id
	}
	m.serve(cpds, true)
	m.epoch.Store(newParamEpoch(cpds, tableSize))
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("core: decode: %w", err)
	}
	return m, nil
}
