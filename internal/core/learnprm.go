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
	cpds := make([]bayesnet.CPD, len(vars))
	for id := range vars {
		cpds[id] = res.Fits[id].CPD
	}
	m := &PRM{
		vars:    vars,
		index:   index,
		parents: res.Parents,
		strata:  strata,
	}
	tableSize := make(map[string]int64)
	for _, tn := range db.TableNames() {
		tableSize[tn] = int64(db.Table(tn).Len())
	}
	m.epoch.Store(newParamEpoch(cpds, tableSize))
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}
