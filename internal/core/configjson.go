package core

import (
	"encoding/json"
	"fmt"
)

// Configs and reports cross process boundaries as JSON: operators pin
// configurations from the command line and the admin endpoint, /report
// serves the observation tree, and the replay tooling stores both in
// monitoring logs. The types carry their own json tags, so the wire format
// is the Go types themselves; only TaskType needs a custom encoding.

// MarshalJSON encodes the task type as the wire format's "par" flag.
func (t TaskType) MarshalJSON() ([]byte, error) {
	return json.Marshal(t == PAR)
}

// UnmarshalJSON decodes a "par" flag. Anything but a JSON bool (or null,
// which leaves the type unchanged) is an error: a silently defaulted SEQ
// would hide a corrupt or foreign log.
func (t *TaskType) UnmarshalJSON(data []byte) error {
	switch string(data) {
	case "true":
		*t = PAR
	case "false":
		*t = SEQ
	case "null":
	default:
		return fmt.Errorf("core: task type: want a JSON bool, got %.32s", data)
	}
	return nil
}

// ParseConfig decodes a JSON configuration, e.g.
//
//	{"alt":0,"extents":[3],"children":{"video":{"alt":0,"extents":[1,6,1]}}}
//
// No normalization is applied; pass the result through Normalize (or
// Exec.SetConfig, which normalizes) before use.
func ParseConfig(data []byte) (*Config, error) {
	var c Config
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("core: config: %w", err)
	}
	return &c, nil
}
