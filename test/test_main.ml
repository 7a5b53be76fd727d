(* Test runner: each Suite_* module contributes alcotest suites. *)
let () =
  Alcotest.run "secdb"
    (List.concat
       [
         Suite_util.suites;
         Suite_cipher.suites;
         Suite_hash.suites;
         Suite_modes.suites;
         Suite_mac.suites;
         Suite_aead.suites;
         Suite_db.suites;
         Suite_index.suites;
         Suite_schemes.suites;
         Suite_attacks.suites;
         Suite_query.suites;
         Suite_storage.suites;
         Suite_integration.suites;
         Suite_props.suites;
         Suite_sql.suites;
         Suite_planner.suites;
         Suite_merkle.suites;
         Suite_sql_diff.suites;
         Suite_pager.suites;
         Suite_crash.suites;
         Suite_oplog.suites;
         Suite_core.suites;
         Suite_bulk.suites;
         Suite_obs.suites;
         Suite_net.suites;
         Suite_repl.suites;
       ])
