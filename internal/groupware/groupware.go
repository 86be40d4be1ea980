// Package groupware provides four CSCW applications, one per cell of the
// paper's figure-1 time-space matrix:
//
//	same time / same place           MeetingRoom                (COLAB-style [10])
//	same time / different place      RegisterDesktopConference  (Shared X-style [6])
//	different time / same place      RegisterTeamRoom           (shift handover board)
//	different time / different place RegisterMessageSystem      (Object-Lens-style [7])
//
// Each application registers with the CSCW environment (figure 3) and
// works only through environment services — which is exactly what makes
// them open: any of them can read the others' artefacts via the shared
// information model. The meeting room also runs its room conference and
// publishes minutes; the other three register their schemas.
package groupware

import (
	"fmt"
	"strings"

	"mocca/internal/core"
	"mocca/internal/information"
	"mocca/internal/rtc"
)

// Quadrant names used in Application registrations.
const (
	QuadrantSameTimeSamePlace = "same-time/same-place"
	QuadrantSameTimeDiffPlace = "same-time/different-place"
	QuadrantDiffTimeSamePlace = "different-time/same-place"
	QuadrantDiffTimeDiffPlace = "different-time/different-place"
)

// Quadrants lists all four in matrix order.
func Quadrants() []string {
	return []string{
		QuadrantSameTimeSamePlace,
		QuadrantSameTimeDiffPlace,
		QuadrantDiffTimeSamePlace,
		QuadrantDiffTimeDiffPlace,
	}
}

// renameFields builds a field-mapping converter.
func renameFields(mapping map[string]string) func(map[string]string) (map[string]string, error) {
	return func(in map[string]string) (map[string]string, error) {
		out := make(map[string]string, len(in))
		for k, v := range in {
			if nk, ok := mapping[k]; ok {
				out[nk] = v
			}
		}
		return out, nil
	}
}

// --- MeetingRoom (same time, same place) ---------------------------------

// MeetingRoom is a co-located electronic meeting room: one shared display
// (an rtc conference whose members all sit on the same node), plus minutes
// published into the information space when the meeting closes.
type MeetingRoom struct {
	env    *core.Environment
	server *rtc.Server
	conf   string
}

// NewMeetingRoom registers the application and opens its room conference.
func NewMeetingRoom(env *core.Environment, server *rtc.Server) (*MeetingRoom, error) {
	app := core.Application{
		Name:     "meeting-room",
		Quadrant: QuadrantSameTimeSamePlace,
		Schema: information.Schema{Name: "meeting-minutes", Fields: []information.Field{
			{Name: "topic", Type: information.FieldText, Required: true},
			{Name: "notes", Type: information.FieldText},
			{Name: "scribe", Type: information.FieldText},
		}},
		ToShared:   renameFields(map[string]string{"topic": "title", "notes": "body", "scribe": "author"}),
		FromShared: renameFields(map[string]string{"title": "topic", "body": "notes", "author": "scribe"}),
	}
	if err := env.RegisterApplication(app); err != nil {
		return nil, err
	}
	cid, err := server.CreateConference("meeting-room", rtc.ModeFloor)
	if err != nil {
		return nil, err
	}
	return &MeetingRoom{env: env, server: server, conf: cid}, nil
}

// ConferenceID returns the room's conference id for sessions to join.
func (m *MeetingRoom) ConferenceID() string { return m.conf }

// PublishMinutes renders the room history into a minutes object owned by
// the scribe.
func (m *MeetingRoom) PublishMinutes(scribe, topic string) (*information.Object, error) {
	history, err := m.server.History(m.conf)
	if err != nil {
		return nil, err
	}
	var notes strings.Builder
	for _, ev := range history {
		if ev.Kind == rtc.EventState {
			fmt.Fprintf(&notes, "%s: %s = %s\n", ev.From, ev.Key, ev.Value)
		}
	}
	return m.env.Space().Put(scribe, "meeting-minutes", map[string]string{
		"topic":  topic,
		"notes":  notes.String(),
		"scribe": scribe,
	})
}

// --- DesktopConference (same time, different place) ----------------------

// RegisterDesktopConference registers a Shared-X-style remote
// conference: members join from their own nodes, and the WYSIWIS state is
// the shared document.
func RegisterDesktopConference(env *core.Environment) error {
	return env.RegisterApplication(core.Application{
		Name:     "desktop-conference",
		Quadrant: QuadrantSameTimeDiffPlace,
		Schema: information.Schema{Name: "conf-document", Fields: []information.Field{
			{Name: "name", Type: information.FieldText, Required: true},
			{Name: "contents", Type: information.FieldText},
			{Name: "editor", Type: information.FieldText},
		}},
		ToShared:   renameFields(map[string]string{"name": "title", "contents": "body", "editor": "author"}),
		FromShared: renameFields(map[string]string{"title": "name", "body": "contents", "author": "editor"}),
	})
}

// --- TeamRoom (different time, same place) --------------------------------

// RegisterTeamRoom registers a shift-handover board in a shared physical
// space: notes are posted by one shift and read by the next — same place,
// different times.
func RegisterTeamRoom(env *core.Environment) error {
	return env.RegisterApplication(core.Application{
		Name:     "team-room",
		Quadrant: QuadrantDiffTimeSamePlace,
		Schema: information.Schema{Name: "shift-note", Fields: []information.Field{
			{Name: "headline", Type: information.FieldText, Required: true},
			{Name: "detail", Type: information.FieldText},
			{Name: "shift", Type: information.FieldText},
			{Name: "poster", Type: information.FieldText},
		}},
		ToShared:   renameFields(map[string]string{"headline": "title", "detail": "body", "poster": "author"}),
		FromShared: renameFields(map[string]string{"title": "headline", "body": "detail", "author": "poster"}),
	})
}

// --- MessageSystem (different time, different place) ----------------------

// RegisterMessageSystem registers an Object-Lens-style structured-message
// application on the MHS: conversations are threads of typed messages.
func RegisterMessageSystem(env *core.Environment) error {
	return env.RegisterApplication(core.Application{
		Name:     "message-system",
		Quadrant: QuadrantDiffTimeDiffPlace,
		Schema: information.Schema{Name: "structured-message", Fields: []information.Field{
			{Name: "subject", Type: information.FieldText, Required: true},
			{Name: "text", Type: information.FieldText},
			{Name: "sender", Type: information.FieldText},
			{Name: "thread", Type: information.FieldText},
		}},
		ToShared:   renameFields(map[string]string{"subject": "title", "text": "body", "sender": "author"}),
		FromShared: renameFields(map[string]string{"title": "subject", "body": "text", "author": "sender"}),
	})
}
