package core

import (
	"fmt"

	"prmsel/internal/bayesnet"
	"prmsel/internal/dataset"
	"prmsel/internal/learn"
)

// Learn constructs a PRM from the database: it enumerates the PRM variables
// (attributes plus one join indicator per foreign key), runs hill-climbing
// structure search with the configured scoring rule under the byte budget,
// and assembles the resulting model (paper §4).
func Learn(db *dataset.Database, cfg Config) (*PRM, error) {
	if err := db.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	vars, index, strata, err := buildVars(db)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	oracle := newPRMOracle(db, cfg, vars, index)
	res, err := learn.Search(oracle, cfg.Search)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	m := &PRM{
		vars:    vars,
		index:   index,
		parents: res.Parents,
		strata:  strata,
	}
	// What Learn returns must load again: each CPD passes the check that
	// Decode runs, the bound on the cells serving builds included.
	cpds := make([]bayesnet.CPD, len(vars))
	for id, v := range vars {
		cpds[id] = res.Fits[id].CPD
		if err := bayesnet.CheckCPD(cpds[id], v.Card, m.parentCards(id)); err != nil {
			return nil, fmt.Errorf("core: learned variable %s: %w", v.Name(), err)
		}
	}
	tableSize := make(map[string]int64)
	for _, tn := range db.TableNames() {
		tableSize[tn] = int64(db.Table(tn).Len())
	}
	m.serve(cpds, true)
	m.epoch.Store(newParamEpoch(cpds, tableSize))
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}
