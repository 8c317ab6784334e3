//! On-disk format pins: literal bytes captured from the build that
//! introduced each format. Reading them must keep working and — for the
//! formats this build still writes (checkpoint v1, snapshot v3, journal
//! v2) — re-serialising what was read must reproduce them byte for
//! byte, so a refactor of the framing or persistence code provably
//! reads the old files and reads and writes the current ones.

use t2vec_core::checkpoint;
use t2vec_serve::snapshot::{snapshot_from_bytes, snapshot_to_bytes, SNAP_FORMAT_VERSION};
use t2vec_serve::{Entry, Journal, StoreSnapshot};

/// A framed `t2vec-ckpt v1` checkpoint of a 5-token, 1-dim model.
const CHECKPOINT_V1: &str = concat!(
    r#"{"version":1,"config_hash":4648168994278168496,"setup_seed":40,"epochs_done":2,"iterations":14,"stagnant":1,"best_val_bits":1061158912,"history":[],"rng":{"s0":6429139506175432575,"s1":13761582198419052571,"s2":16409396868069768017,"s3":10488083490878541798},"model":{"config":{"vocab":5,"embed_dim":1,"hidden":1,"layers":1,"bidirectional":false},"embedding":{"table":{"name":"emb","value":{"rows":5,"cols":1,"data":[-0.04159543663263321,0.02228788286447525,-0.08040735870599747,-0.08827777206897736,0.005411282181739807]},"adam":{"m":{"rows":5,"cols":1,"data":[0,0,0,0,0]},"v":{"rows":5,"cols":1,"data":[0,0,0,0,0]},"t":0}},"dim":1},"encoder":{"layers":[{"wx":{"name":"enc.fwd.l0.wx","value":{"rows":1,"cols":3,"data":[0.49775028228759766,-0.09867525100708008,-1.0582019090652466]},"adam":{"m":{"rows":1,"cols":3,"data":[0,0,0]},"v":{"rows":1,"cols":3,"data":[0,0,0]},"t":0}},"wh":{"name":"enc.fwd.l0.wh","value":{"rows":1,"cols":3,"data":[0.9380553960800171,0.8656097650527954,0.9958900213241577]},"adam":{"m":{"rows":1,"cols":3,"data":[0,0,0]},"v":{"rows":1,"cols":3,"data":[0,0,0]},"t":0}},"b":{"name":"enc.fwd.l0.b","value":{"rows":1,"cols":3,"data":[0,0,0]},"adam":{"m":{"rows":1,"cols":3,"data":[0,0,0]},"v":{"rows":1,"cols":3,"data":[0,0,0]},"t":0}},"input_dim":1,"hidden":1}]},"encoder_bwd":null,"decoder":{"layers":[{"wx":{"name":"dec.l0.wx","value":{"rows":1,"cols":3,"data":[0.9510596990585327,1.0605212450027466,-0.14997541904449463]},"adam":{"m":{"rows":1,"cols":3,"data":[0,0,0]},"v":{"rows":1,"cols":3,"data":[0,0,0]},"t":0}},"wh":{"name":"dec.l0.wh","value":{"rows":1,"cols":3,"data":[0.24427354335784912,1.179315209388733,0.5768493413925171]},"adam":{"m":{"rows":1,"cols":3,"data":[0,0,0]},"v":{"rows":1,"cols":3,"data":[0,0,0]},"t":0}},"b":{"name":"dec.l0.b","value":{"rows":1,"cols":3,"data":[0,0,0]},"adam":{"m":{"rows":1,"cols":3,"data":[0,0,0]},"v":{"rows":1,"cols":3,"data":[0,0,0]},"t":0}},"input_dim":1,"hidden":1}]},"w_out":{"name":"w_out","value":{"rows":5,"cols":1,"data":[0.32491040229797363,-0.8295183181762695,0.08454489707946777,-0.06500935554504395,-0.5219717025756836]},"adam":{"m":{"rows":5,"cols":1,"data":[0,0,0,0,0]},"v":{"rows":5,"cols":1,"data":[0,0,0,0,0]},"t":0}}},"best_model":null}"#,
    "\n",
    "t2vec-ckpt v1 crc32=2ea67368 len=2226\n",
);

/// A format-v1 snapshot (pre-ANN: v1 magic, no `ann` field).
const SNAPSHOT_V1: &str = concat!(
    r#"{"version":1,"seq":7,"dim":2,"entries":[{"id":1,"vec":[0.5,-1.25]},{"id":4,"vec":[3,0.125]}]}"#,
    "\n",
    "t2vec-snap v1 crc32=6634b205 len=93\n",
);

/// A format-v2 snapshot carrying a quantized two-cell ANN tier.
const SNAPSHOT_V2: &str = concat!(
    r#"{"version":2,"seq":9,"dim":2,"entries":[{"id":1,"vec":[0.5,-1.25]},{"id":4,"vec":[3,0.125]},{"id":7,"vec":[-2,1]},{"id":10,"vec":[0.25,0.75]}],"ann":{"nprobe":1,"rerank":7,"centroids":[[-0.4166666567325592,0.1666666716337204],[3,0.125]],"quantizer":{"lo":[-2,-1.25],"scale":[0.019607843831181526,0.008823529817163944],"bias":[0.5098040103912354,-0.12058818340301514]}}}"#,
    "\n",
    "t2vec-snap v2 crc32=bd13880b len=369\n",
);

/// [`SNAPSHOT_V2`]'s contents as a format-v3 snapshot: the 56-byte
/// header, the rows, the ANN slabs, the frame trailer.
const SNAPSHOT_V3: [&[u8]; 12] = [
    // version 3, flags: ANN state | quantizer
    b"\x03\0\0\0\x03\0\0\0",
    // seq 9, dim 2, 4 entries
    b"\x09\0\0\0\0\0\0\0\x02\0\0\0\0\0\0\0\x04\0\0\0\0\0\0\0",
    // nlist 2, nprobe 1, rerank 7
    b"\x02\0\0\0\0\0\0\0\x01\0\0\0\0\0\0\0\x07\0\0\0\0\0\0\0",
    // id 1: [0.5, -1.25]
    b"\x01\0\0\0\0\0\0\0\0\0\0\x3f\0\0\xa0\xbf",
    // id 4: [3, 0.125]
    b"\x04\0\0\0\0\0\0\0\0\0\x40\x40\0\0\0\x3e",
    // id 7: [-2, 1]
    b"\x07\0\0\0\0\0\0\0\0\0\0\xc0\0\0\x80\x3f",
    // id 10 (a newline byte inside the payload): [0.25, 0.75]
    b"\x0a\0\0\0\0\0\0\0\0\0\x80\x3e\0\0\x40\x3f",
    // centroids [-0.41666666, 0.16666667] and [3, 0.125]
    b"\x55\x55\xd5\xbe\xab\xaa\x2a\x3e\0\0\x40\x40\0\0\0\x3e",
    // quantizer lo [-2, -1.25]
    b"\0\0\0\xc0\0\0\xa0\xbf",
    // quantizer scale [0.019607844, 0.00882353]
    b"\xa1\xa0\xa0\x3c\x91\x90\x10\x3c",
    // quantizer bias [0.509804, -0.12058818]
    b"\x84\x82\x02\x3f\xf0\xf6\xf6\xbd",
    b"\nt2vec-snap v3 crc32=df806e4c len=160\n",
];

/// One v1 journal record: CRC of the payload, a space, the payload.
const JOURNAL_V1_RECORD: &str = "11eedd5a {\"id\":42,\"vec\":[0.5,-1.25,3]}\n";

/// A v2 journal file holding the same record: file magic, one record.
const JOURNAL_V2: [&[u8]; 5] = [
    b"t2vec-journal v2\n",
    // len = 8 + 4·3
    b"\x14\0\0\0",
    // id 42
    b"\x2a\0\0\0\0\0\0\0",
    // [0.5, -1.25, 3]
    b"\0\0\0\x3f\0\0\xa0\xbf\0\0\x40\x40",
    // crc32 of the 24 bytes above
    b"\xca\x54\xe3\x04",
];

#[test]
fn checkpoint_v1_bytes_read_and_write_back_identically() {
    let ckpt = checkpoint::from_bytes(CHECKPOINT_V1.as_bytes()).expect("v1 checkpoint reads");
    assert_eq!(
        (ckpt.epochs_done, ckpt.iterations, ckpt.stagnant),
        (2, 14, 1)
    );
    assert_eq!(ckpt.best_val(), 0.75);
    let written = checkpoint::to_bytes(&ckpt).unwrap();
    assert_eq!(String::from_utf8(written).unwrap(), CHECKPOINT_V1);
}

#[test]
fn snapshot_v1_bytes_still_read() {
    let snap = snapshot_from_bytes(SNAPSHOT_V1.as_bytes()).expect("v1 snapshot reads");
    assert_eq!((snap.version, snap.seq, snap.dim), (1, 7, 2));
    let ids: Vec<u64> = snap.entries.iter().map(|e| e.id).collect();
    assert_eq!(ids, vec![1, 4]);
    assert_eq!(snap.entries[1].vec, vec![3.0, 0.125]);
    assert!(snap.ann.is_none(), "v1 has no tier");
}

#[test]
fn snapshot_v2_bytes_read_and_write_back_identically() {
    let snap = snapshot_from_bytes(SNAPSHOT_V2.as_bytes()).expect("v2 snapshot reads");
    assert_eq!((snap.version, snap.seq, snap.entries.len()), (2, 9, 4));
    let ann = snap.ann.as_ref().expect("v2 carries the tier");
    assert_eq!((ann.nprobe, ann.rerank, ann.centroids.len()), (1, 7, 2));
    // The v2 writer is gone: what was read writes back as v3, to the
    // pinned v3 bytes, and those read back as the same snapshot.
    let written = snapshot_to_bytes(&snap).unwrap();
    assert_eq!(written, SNAPSHOT_V3.concat());
    let reread = snapshot_from_bytes(&written).expect("v3 snapshot reads");
    let upgraded = StoreSnapshot {
        version: SNAP_FORMAT_VERSION,
        ..snap
    };
    assert_eq!(reread, upgraded);
}

#[test]
fn snapshot_v3_bytes_read_and_write_back_identically() {
    let bytes = SNAPSHOT_V3.concat();
    let snap = snapshot_from_bytes(&bytes).expect("v3 snapshot reads");
    assert_eq!((snap.version, snap.seq, snap.dim), (3, 9, 2));
    let ids: Vec<u64> = snap.entries.iter().map(|e| e.id).collect();
    assert_eq!(ids, vec![1, 4, 7, 10]);
    assert_eq!(snap.entries[3].vec, vec![0.25, 0.75]);
    let ann = snap.ann.as_ref().expect("the pin carries a tier");
    assert_eq!((ann.nprobe, ann.rerank), (1, 7));
    assert_eq!(ann.centroids[1], vec![3.0, 0.125]);
    let quantizer = ann.quantizer.as_ref().expect("a quantized tier");
    assert_eq!(quantizer.lo(), [-2.0, -1.25]);
    assert_eq!(snapshot_to_bytes(&snap).unwrap(), bytes);
}

fn pinned_entry() -> Entry {
    Entry {
        id: 42,
        vec: vec![0.5, -1.25, 3.0],
    }
}

#[test]
fn journal_record_bytes_write_and_replay() {
    // Format v1 is read-only now: its literal still replays.
    let dir = std::env::temp_dir().join(format!("t2vec-format-pin-v1-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("journal.log");
    std::fs::write(&path, JOURNAL_V1_RECORD.repeat(2)).unwrap();
    let (replayed, warnings) = Journal::replay(&path);
    assert!(warnings.is_empty(), "{warnings:?}");
    assert_eq!(replayed, vec![pinned_entry(), pinned_entry()]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn journal_v2_bytes_write_and_replay() {
    let dir = std::env::temp_dir().join(format!("t2vec-format-pin-v2-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let path = dir.join("journal.log");
    Journal::open(&path)
        .unwrap()
        .append(&pinned_entry())
        .unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), JOURNAL_V2.concat());

    let two_records = [&JOURNAL_V2[..], &JOURNAL_V2[1..]].concat().concat();
    std::fs::write(&path, two_records).unwrap();
    let (replayed, warnings) = Journal::replay(&path);
    assert!(warnings.is_empty(), "{warnings:?}");
    assert_eq!(replayed, vec![pinned_entry(), pinned_entry()]);
    std::fs::remove_dir_all(&dir).ok();
}
