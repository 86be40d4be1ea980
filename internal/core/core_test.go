package core

import (
	"errors"
	"reflect"
	"testing"

	"mocca/internal/directory"
	"mocca/internal/information"
	"mocca/internal/netsim"
	"mocca/internal/odp"
	"mocca/internal/org"
	"mocca/internal/policy"
	"mocca/internal/trader"
	"mocca/internal/transparency"
	"mocca/internal/vclock"
)

func newEnv(t *testing.T) *Environment {
	t.Helper()
	return New(vclock.NewSimulated(netsim.DefaultEpoch))
}

// editorApp and mailApp are two figure-3 applications with different
// native schemas.
func editorApp() Application {
	rename := func(m map[string]string) func(map[string]string) (map[string]string, error) {
		return func(in map[string]string) (map[string]string, error) {
			out := make(map[string]string)
			for k, v := range in {
				if nk, ok := m[k]; ok {
					out[nk] = v
				}
			}
			return out, nil
		}
	}
	return Application{
		Name:       "group-editor",
		Quadrant:   "same-time/different-place",
		Schema:     information.Schema{Name: "editor-doc", Fields: []information.Field{{Name: "heading", Type: information.FieldText, Required: true}, {Name: "text", Type: information.FieldText}, {Name: "writer", Type: information.FieldText}}},
		ToShared:   rename(map[string]string{"heading": "title", "text": "body", "writer": "author"}),
		FromShared: rename(map[string]string{"title": "heading", "body": "text", "author": "writer"}),
	}
}

func mailApp() Application {
	rename := func(m map[string]string) func(map[string]string) (map[string]string, error) {
		return func(in map[string]string) (map[string]string, error) {
			out := make(map[string]string)
			for k, v := range in {
				if nk, ok := m[k]; ok {
					out[nk] = v
				}
			}
			return out, nil
		}
	}
	return Application{
		Name:       "message-system",
		Quadrant:   "different-time/different-place",
		Schema:     information.Schema{Name: "mail-memo", Fields: []information.Field{{Name: "subject", Type: information.FieldText, Required: true}, {Name: "content", Type: information.FieldText}, {Name: "from", Type: information.FieldText}}},
		ToShared:   rename(map[string]string{"subject": "title", "content": "body", "from": "author"}),
		FromShared: rename(map[string]string{"title": "subject", "body": "content", "author": "from"}),
	}
}

func TestApplicationRegistration(t *testing.T) {
	env := newEnv(t)
	if err := env.RegisterApplication(editorApp()); err != nil {
		t.Fatal(err)
	}
	if err := env.RegisterApplication(mailApp()); err != nil {
		t.Fatal(err)
	}
	if err := env.RegisterApplication(editorApp()); !errors.Is(err, ErrAppExists) {
		t.Fatalf("dup registration: %v", err)
	}
	apps := env.Applications()
	if len(apps) != 2 || apps[0] != "group-editor" {
		t.Fatalf("apps = %v", apps)
	}
	quads := env.Quadrants()
	if len(quads) != 2 {
		t.Fatalf("quadrants = %v", quads)
	}
	schemas := env.Space().Registry().Schemas()
	if len(schemas) != 3 { // 2 native + shared
		t.Fatalf("schemas = %v", schemas)
	}
}

func TestFigure3InteropAcrossApps(t *testing.T) {
	env := newEnv(t)
	if err := env.RegisterApplication(editorApp()); err != nil {
		t.Fatal(err)
	}
	if err := env.RegisterApplication(mailApp()); err != nil {
		t.Fatal(err)
	}
	// The editor authors a document...
	obj, err := env.Space().Put("ada", "editor-doc", map[string]string{
		"heading": "Tunnel progress", "text": "on schedule", "writer": "ada",
	})
	if err != nil {
		t.Fatal(err)
	}
	// ...shares it with the mail system's user...
	if err := env.Space().Share("ada", obj.ID, "ben", false); err != nil {
		t.Fatal(err)
	}
	// ...who reads it in the mail system's native schema, two conversion
	// hops away (editor-doc -> shared -> mail-memo).
	memo, err := env.ShareAcross("ben", obj.ID, "message-system")
	if err != nil {
		t.Fatal(err)
	}
	if memo.Fields["subject"] != "Tunnel progress" || memo.Fields["from"] != "ada" {
		t.Fatalf("memo = %+v", memo.Fields)
	}
	if _, err := env.ShareAcross("ben", obj.ID, "ghost-app"); !errors.Is(err, ErrUnknownApp) {
		t.Fatalf("ghost app: %v", err)
	}
}

func TestTradingPolicyWiredToOrgKB(t *testing.T) {
	env := newEnv(t)
	kb := env.Org()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(kb.AddObject(org.Object{ID: "gmd", Kind: org.KindOrg}))
	must(kb.AddObject(org.Object{ID: "rival", Kind: org.KindOrg}))
	must(kb.AddObject(org.Object{ID: "prinz", Kind: org.KindPerson, Org: "gmd"}))
	kb.SetPolicy("gmd", "data-sharing", "open")
	kb.SetPolicy("rival", "data-sharing", "closed")

	tr := env.Trader()
	must(tr.RegisterType("conferencing"))
	must(tr.Export(trader.Offer{ID: "own", ServiceType: "conferencing",
		Properties: directory.NewAttributes("org", "gmd")}))
	must(tr.Export(trader.Offer{ID: "blocked", ServiceType: "conferencing",
		Properties: directory.NewAttributes("org", "rival")}))

	got, err := tr.Import(trader.ImportRequest{ServiceType: "conferencing", Importer: "prinz"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != "own" {
		t.Fatalf("policy-filtered import = %v", got)
	}
}

func TestModelEventsReachPolicyEngine(t *testing.T) {
	env := newEnv(t)
	var fired []string
	env.Policies().RegisterAction("log", func(ev policy.Event, args map[string]string) error {
		fired = append(fired, ev.Kind+":"+ev.Attr("name")+ev.Attr("schema"))
		return nil
	}, true)
	if err := env.Policies().AddRule(policy.Rule{Name: "log-activity", On: "activity.created", ActionName: "log"}); err != nil {
		t.Fatal(err)
	}
	if err := env.Policies().AddRule(policy.Rule{Name: "log-info", On: "info.put", ActionName: "log"}); err != nil {
		t.Fatal(err)
	}
	if _, err := env.Activities().Create("ada", "progress-meetings", "weekly"); err != nil {
		t.Fatal(err)
	}
	if _, err := env.Space().Put("ada", SharedSchemaName, map[string]string{"title": "minutes"}); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 {
		t.Fatalf("fired = %v", fired)
	}
	if fired[0] != "activity.created:progress-meetings" || fired[1] != "info.put:mocca-interchange" {
		t.Fatalf("fired = %v", fired)
	}
}

// TestSiteEventsCarryAttributesOnceARuleAsks: with no rule installed an
// information event is only counted; with one, the rule reads the same
// attributes as ever, the site tag of a site replica included.
func TestSiteEventsCarryAttributesOnceARuleAsks(t *testing.T) {
	env := newEnv(t)
	upc := env.SiteEnv("upc").Space()
	if _, err := upc.Put("ada", SharedSchemaName, map[string]string{"title": "unseen"}); err != nil {
		t.Fatal(err)
	}
	if st := env.Policies().Stats(); st.Dispatched != 1 || st.Fired != 0 {
		t.Fatalf("stats without rules = %+v", st)
	}
	var seen []map[string]string
	env.Policies().RegisterAction("log", func(ev policy.Event, _ map[string]string) error {
		seen = append(seen, ev.Attrs)
		return nil
	}, true)
	if err := env.Policies().AddRule(policy.Rule{Name: "log-info", On: "info.put", ActionName: "log"}); err != nil {
		t.Fatal(err)
	}
	obj, err := upc.Put("ada", SharedSchemaName, map[string]string{"title": "seen"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.Space().Put("ada", SharedSchemaName, map[string]string{"title": "root"}); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"actor": "ada", "kind": "put", "site": "upc", "object": obj.ID, "schema": SharedSchemaName}
	if len(seen) != 2 || !reflect.DeepEqual(seen[0], want) {
		t.Fatalf("site event attributes = %v, want %v", seen, want)
	}
	if _, tagged := seen[1]["site"]; tagged || seen[1]["schema"] != SharedSchemaName {
		t.Fatalf("root space event attributes = %v", seen[1])
	}
}

// TestInfoEventWithoutRulesAllocatesNothing: with no rule installed, an
// event of a kind the Space emits is counted and builds nothing; an unknown
// kind still reaches a rule under its "info." name.
func TestInfoEventWithoutRulesAllocatesNothing(t *testing.T) {
	env := newEnv(t)
	ev := information.Event{Kind: "apply", Object: &information.Object{ID: "o1", Schema: SharedSchemaName}, Actor: "replica/upc"}
	if n := testing.AllocsPerRun(100, func() { env.dispatchInfo("upc", ev) }); n != 0 {
		t.Fatalf("dispatching an apply event with no rules allocates %v times", n)
	}
	if got := env.Policies().Stats().Dispatched; got != 101 { // AllocsPerRun's warm-up run too
		t.Fatalf("Dispatched = %d after 101 events", got)
	}
	var fired []string
	env.Policies().RegisterAction("log", func(ev policy.Event, _ map[string]string) error {
		fired = append(fired, ev.Kind)
		return nil
	}, true)
	for _, on := range []string{"info.apply", "info.novel"} {
		if err := env.Policies().AddRule(policy.Rule{Name: on, On: on, ActionName: "log"}); err != nil {
			t.Fatal(err)
		}
	}
	env.dispatchInfo("upc", ev)
	env.dispatchInfo("upc", information.Event{Kind: "novel"})
	if !reflect.DeepEqual(fired, []string{"info.apply", "info.novel"}) {
		t.Fatalf("rules fired on %v", fired)
	}
}

func TestConformanceCoversAllViewpoints(t *testing.T) {
	env := newEnv(t)
	reg := env.Conformance()
	for _, v := range odp.Viewpoints() {
		if len(reg.ByViewpoint(v)) == 0 {
			t.Errorf("no requirement mapped at the %s viewpoint", v)
		}
	}
	// The three §6.1 headline mappings exist.
	names := map[string]bool{}
	for _, r := range reg.All() {
		names[r.Name] = true
	}
	for _, want := range []string{"organisational-modelling", "selective-transparency", "trading-policy-from-org-kb"} {
		if !names[want] {
			t.Errorf("missing conformance requirement %q", want)
		}
	}
}

func TestSyncOrgToDirectory(t *testing.T) {
	env := newEnv(t)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(env.Org().AddObject(org.Object{ID: "gmd", Kind: org.KindOrg, Name: "GMD"}))
	must(env.Org().AddObject(org.Object{ID: "prinz", Kind: org.KindPerson, Name: "Prinz", Org: "gmd"}))
	must(env.SyncOrgToDirectory())
	entry, err := env.Directory().Read(directory.MustParseDN("cn=prinz,ou=person,o=gmd"))
	if err != nil {
		t.Fatal(err)
	}
	if entry.Attrs.First("cn") != "Prinz" {
		t.Fatalf("entry = %v", entry.Attrs)
	}
}

func TestImportExpertise(t *testing.T) {
	env := newEnv(t)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(env.Org().AddObject(org.Object{ID: "gmd", Kind: org.KindOrg}))
	must(env.Org().AddObject(org.Object{ID: "prinz", Kind: org.KindPerson, Org: "gmd"}))
	must(env.Org().AddObject(org.Object{ID: "leader", Kind: org.KindRole, Org: "gmd"}))
	must(env.Org().Relate("prinz", org.RelFills, "leader"))
	env.ImportExpertise()
	p, err := env.Expertise().Profile("prinz")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Responsibilities) != 1 || p.Responsibilities[0].Name != "leader" {
		t.Fatalf("profile = %+v", p)
	}
}

func TestSnapshot(t *testing.T) {
	env := newEnv(t)
	if err := env.RegisterApplication(editorApp()); err != nil {
		t.Fatal(err)
	}
	if _, err := env.Space().Put("ada", SharedSchemaName, map[string]string{"title": "x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := env.Activities().Create("ada", "a", ""); err != nil {
		t.Fatal(err)
	}
	rep := env.Snapshot()
	if len(rep.Applications) != 1 || rep.Objects != 1 || rep.Activities != 1 || rep.Requirements == 0 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestSiteEnvReplicasShareRegistryAndACL(t *testing.T) {
	env := newEnv(t)
	gmd := env.SiteEnv("gmd")
	upc := env.SiteEnv("upc")
	if env.SiteEnv("gmd") != gmd {
		t.Fatal("SiteEnv not idempotent")
	}
	if got := env.Sites(); len(got) != 2 || got[0] != "gmd" || got[1] != "upc" {
		t.Fatalf("Sites = %v", got)
	}

	// One registry: a schema registered through any face is visible to all.
	if err := gmd.RegisterApplication(Application{
		Name: "notes",
		Schema: information.Schema{Name: "note", Fields: []information.Field{
			{Name: "head", Type: information.FieldText, Required: true},
		}},
	}); err != nil {
		t.Fatal(err)
	}
	obj, err := upc.Space().Put("ada", "note", map[string]string{"head": "multi-site"})
	if err != nil {
		t.Fatal(err)
	}
	if obj.Site != "upc" || obj.VV.Counter("upc") != 1 {
		t.Fatalf("replica metadata: %+v", obj)
	}

	// One ACL: a grant issued at upc admits the reader at gmd once the
	// object replicates there.
	if err := upc.Space().Share("ada", obj.ID, "ben", false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := gmd.Space().ApplyRemote(obj); err != nil {
		t.Fatal(err)
	}
	got, err := gmd.Get("ben", obj.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fields["head"] != "multi-site" {
		t.Fatalf("fields = %v", got.Fields)
	}
	// Default replication transparency: no replica annotations.
	if _, ok := got.Fields[transparency.ReplicaSiteField]; ok {
		t.Fatal("transparent read leaked replica detail")
	}

	// Deselect replication transparency: the read is annotated with the
	// serving replica and the writing site.
	env.Transparency().Disable("ben", odp.Replication)
	got, err = gmd.Get("ben", obj.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fields[transparency.ReplicaSiteField] != "gmd" ||
		got.Fields[transparency.ReplicaWriterField] != "upc" {
		t.Fatalf("annotations = %v", got.Fields)
	}

	// Site replica events reach the tailorability engine tagged with the
	// site (the policy engine saw info.put with site=upc via dispatch) —
	// verified indirectly: conflict resolution events carry winner/loser.
	if env.Space().Len() != 0 {
		t.Fatal("root space must not absorb site writes")
	}
}
