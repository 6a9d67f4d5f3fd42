//! Session-isolation contract of the concurrent service layer: sessions
//! get independent instance namespaces (names, counters, designs) over
//! one shared knowledge base, and knowledge mutations by any session
//! invalidate warm cache hits for all sessions at once.

use icdb::{ComponentRequest, Icdb, IcdbService, NsId};

const STRESS_AND: &str = "
NAME: SESSION_AND;
PARAMETER: size;
INORDER: A[size], B[size];
OUTORDER: O[size];
VARIABLE: i;
{
  #for(i=0;i<size;i++)
    O[i] = A[i] * B[i];
}";

#[test]
fn sessions_get_independent_instance_names() {
    let service = IcdbService::shared();
    let a = service.open_session();
    let b = service.open_session();
    let req = ComponentRequest::by_component("counter").attribute("size", "4");

    // Both sessions start their naming counters at zero: same names,
    // different instances.
    assert_eq!(a.request_component(&req).unwrap(), "counter$1");
    assert_eq!(b.request_component(&req).unwrap(), "counter$1");
    assert_eq!(a.request_component(&req).unwrap(), "counter$2");

    assert_eq!(a.instance_names(), vec!["counter$1", "counter$2"]);
    assert_eq!(b.instance_names(), vec!["counter$1"]);

    // The three requests shared one cold generation.
    let stats = service.cache_stats();
    assert_eq!(stats.result.misses, 1, "{stats:?}");
    assert_eq!(stats.result.hits, 2, "{stats:?}");

    // Identical payloads behind the distinct instances.
    assert_eq!(
        a.delay_string("counter$1").unwrap(),
        b.delay_string("counter$1").unwrap()
    );
}

#[test]
fn knowledge_mutation_invalidates_warm_hits_for_all_sessions() {
    let service = IcdbService::shared();
    let a = service.open_session();
    let b = service.open_session();
    let req = ComponentRequest::by_implementation("ADDER").attribute("size", "4");

    a.request_component(&req).unwrap(); // cold
    b.request_component(&req).unwrap(); // warm
    let before = service.cache_stats().result;
    assert_eq!((before.misses, before.hits), (1, 1));

    // Session B acquires knowledge: the library version bumps, so every
    // session's next identical request misses — never a stale hit.
    b.insert_implementation(STRESS_AND, "Logic_unit", &["AND"], &[("size", 4)], None, "")
        .unwrap();
    a.request_component(&req).unwrap();
    b.request_component(&req).unwrap();
    let after = service.cache_stats().result;
    assert_eq!(after.misses, 2, "first post-mutation request re-generates");
    assert_eq!(after.hits, 2, "second one warms against the new version");

    // The acquired implementation is visible to *both* sessions.
    let new_req = ComponentRequest::by_implementation("SESSION_AND").attribute("size", "3");
    assert_eq!(a.request_component(&new_req).unwrap(), "session_and$3");
    assert_eq!(b.request_component(&new_req).unwrap(), "session_and$3");
}

#[test]
fn design_transactions_are_per_session() {
    let service = IcdbService::shared();
    let a = service.open_session();
    let b = service.open_session();

    // Both sessions can hold an open transaction at once — the paper's
    // one-active-transaction rule is scoped per session.
    a.start_design("cpu").unwrap();
    b.start_design("cpu").unwrap(); // same design name, different namespace
    a.start_transaction("cpu").unwrap();
    b.start_transaction("cpu").unwrap();

    let keep = a
        .request_component(&ComponentRequest::by_implementation("ADDER"))
        .unwrap();
    let drop = a
        .request_component(&ComponentRequest::by_implementation("REGISTER"))
        .unwrap();
    let b_inst = b
        .request_component(&ComponentRequest::by_implementation("REGISTER"))
        .unwrap();
    a.put_in_component_list("cpu", &keep).unwrap();

    // Ending A's transaction deletes only A's unlisted instances.
    assert_eq!(a.end_transaction("cpu").unwrap(), 1);
    assert!(a.has_instance(&keep));
    assert!(!a.has_instance(&drop));
    assert!(b.has_instance(&b_inst), "B's transaction is untouched");
    // B never listed its instance, so ending B's transaction deletes it.
    assert_eq!(b.end_transaction("cpu").unwrap(), 1);
    assert!(!b.has_instance(&b_inst));
}

#[test]
fn closing_a_session_scrubs_shared_stores() {
    let service = IcdbService::shared();
    let a = service.open_session();
    let ns = a.ns();
    let name = a
        .request_component(&ComponentRequest::by_implementation("ADDER").attribute("size", "3"))
        .unwrap();
    a.cif_layout(&name).unwrap();

    // Session design data lives under a namespaced prefix in the shared
    // file store, and its relational row carries the scoped name.
    {
        let guard = service.read();
        let prefix = format!("s{}/instances/", ns.raw());
        assert!(!guard.files.list(&prefix).is_empty(), "views persisted");
        let rows = guard
            .db
            .query(&format!(
                "SELECT name FROM instances WHERE name = 's{}:{name}'",
                ns.raw()
            ))
            .unwrap();
        assert_eq!(rows.len(), 1);
    }

    let deleted = a.close();
    assert_eq!(deleted, 1);
    let guard = service.read();
    assert!(
        guard.files.list(&format!("s{}/", ns.raw())).is_empty(),
        "file views scrubbed"
    );
    let rows = guard
        .db
        .query(&format!(
            "SELECT name FROM instances WHERE name = 's{}:{name}'",
            ns.raw()
        ))
        .unwrap();
    assert!(rows.is_empty(), "relational row scrubbed");
}

#[test]
fn namespace_api_works_without_the_service_wrapper() {
    // The `_in` API is usable directly on an embedded Icdb too.
    let mut icdb = Icdb::new();
    let ns = icdb.create_namespace();
    assert_ne!(ns, NsId::ROOT);
    let req = ComponentRequest::by_component("counter").attribute("size", "3");
    let root_name = icdb.request_component(&req).unwrap();
    let ns_name = icdb.request_component_in(ns, &req).unwrap();
    assert_eq!(root_name, "counter$1");
    assert_eq!(ns_name, "counter$1");
    assert_eq!(
        icdb.delay_string(&root_name).unwrap(),
        icdb.delay_string_in(ns, &ns_name).unwrap()
    );
    assert_eq!(icdb.namespace_count(), 2);
    assert_eq!(icdb.drop_namespace(ns), 1);
    assert!(icdb.instance_in(ns, &ns_name).is_err());
    assert!(icdb.instance(&root_name).is_ok(), "root untouched");
}

/// Served generation runs outside the commit section: while one thread
/// holds the shared guard, which the commit section's write guard cannot
/// pass, a cold CQL `request_component` and then a cold `explore
/// publish:1` each fill the result layer before the guard drops. Each
/// wait is bounded, so a regression fails instead of hanging.
#[test]
fn served_generation_runs_outside_the_commit_section() {
    use icdb::cql::CqlArg;
    use std::time::{Duration, Instant};

    let service = IcdbService::shared();
    let mut session = service.open_session();
    for line in [
        "command:request_component; implementation:ADDER; attribute:(size:5); \
         generated_component:?s",
        "command:explore; implementation:(ADDER); widths:(6,7); publish:1; winner:?s",
    ] {
        let guard = service.read();
        let entries = guard.cache_stats().result.entries;
        let served = std::thread::spawn(move || {
            let result = session.execute(line, &mut [CqlArg::OutStr(None)]);
            (session, result)
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while guard.cache_stats().result.entries == entries {
            assert!(
                Instant::now() < deadline,
                "`{line}` did not generate while the shared guard was held"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(guard);
        let (back, result) = served.join().unwrap();
        result.unwrap();
        session = back;
    }
    let rows = service
        .read()
        .db
        .query("SELECT candidate FROM exploration")
        .unwrap();
    assert_eq!(rows.len(), 2, "publish:1 journals the sweep's rows");
    assert_eq!(session.instance_names(), ["adder$1"]);
}
