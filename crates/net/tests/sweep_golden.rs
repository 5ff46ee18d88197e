//! Golden bytes for both aggregated sweeps. A fixed two-cohort fleet
//! with one stale and one tampered device, large enough that every
//! shard holds devices, is swept once in-process
//! (`Verifier::sweep_aggregated`) and then through a gateway: one raw
//! `OpAggSweep` read frame by frame, and one `RemoteOps`
//! `sweep_aggregated`. Every epoch, count, flagged list, shard root,
//! proof MAC and fleet root is pinned in hex, so a refactor of the
//! verifier core cannot move a verdict, a digest, a MAC or a wire byte
//! without failing here.

use std::sync::Arc;

use eilid_casu::agg::{fleet_root, shard_agg_key, AggProof};
use eilid_casu::{DeviceKey, UpdateAuthority};
use eilid_fleet::fixtures::{benign_patch, BENIGN_PATCH_TARGET};
use eilid_fleet::{
    AggSweepSummary, CampaignConfig, Fleet, FleetBuilder, FleetOps, HealthClass, LocalOps,
    OpsError, Verifier, SHARD_COUNT,
};
use eilid_net::{
    with_attached_fleet, AttestationService, Frame, Gateway, GatewayConfig, RemoteOps,
    TcpTransport, Transport, WireHealth, PROTOCOL_VERSION,
};
use eilid_workloads::WorkloadId;

const ROOT: &[u8] = b"fleet-root-key-0123456789abcdef";
const DEVICES: usize = 40;
/// A LightSensor device downgraded to the pre-campaign firmware.
const STALE: u64 = 4;
/// A FireSensor device with one firmware byte flipped.
const TAMPERED: u64 = 17;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|byte| format!("{byte:02x}")).collect()
}

/// Two cohorts (even ids LightSensor, odd ids FireSensor), one
/// completed benign LightSensor campaign so `Stale` is reachable, then
/// one downgraded and one tampered device.
fn prepare() -> (Fleet, Verifier) {
    let (mut fleet, mut verifier) = FleetBuilder::new(DeviceKey::new(ROOT).unwrap())
        .devices(DEVICES)
        .threads(2)
        .workloads(&[WorkloadId::LightSensor, WorkloadId::FireSensor])
        .build()
        .unwrap();
    assert_eq!(
        fleet.devices()[STALE as usize].cohort(),
        WorkloadId::LightSensor
    );
    assert_eq!(
        fleet.devices()[TAMPERED as usize].cohort(),
        WorkloadId::FireSensor
    );

    let span =
        usize::from(BENIGN_PATCH_TARGET)..usize::from(BENIGN_PATCH_TARGET) + benign_patch().len();
    let old_bytes = fleet.devices()[STALE as usize]
        .device()
        .cpu()
        .memory
        .slice(span)
        .to_vec();
    let config = CampaignConfig::new(WorkloadId::LightSensor, BENIGN_PATCH_TARGET, benign_patch());
    LocalOps::new(&mut fleet, &mut verifier)
        .run_campaign(&config)
        .expect("benign campaign completes");

    let key = verifier.device_key(STALE);
    let device = &mut fleet.devices_mut()[STALE as usize];
    let mut authority = UpdateAuthority::with_key_resuming(&key, device.engine().last_nonce() + 1);
    device
        .apply_update(&authority.authorize(BENIGN_PATCH_TARGET, &old_bytes))
        .unwrap();
    device.reboot();

    let memory = &mut fleet.devices_mut()[TAMPERED as usize]
        .device_mut()
        .cpu_mut()
        .memory;
    let original = memory.read_byte(0xE010);
    memory.write_byte(0xE010, original ^ 0x01);
    (fleet, verifier)
}

/// Devices per shard of the fixed fleet, ascending shard.
fn shard_sizes() -> Vec<u32> {
    (0..SHARD_COUNT)
        .map(|shard| (0..DEVICES).filter(|id| id % SHARD_COUNT == shard).count() as u32)
        .collect()
}

fn flagged() -> Vec<(u64, HealthClass)> {
    vec![
        (STALE, HealthClass::Stale),
        (TAMPERED, HealthClass::Tampered),
    ]
}

/// `(shard root, proof MAC)` per shard of the in-process sweep.
const LOCAL_SHARDS: [(&str, &str); SHARD_COUNT] = [
    (
        "4679f26c3b5be22801ad91afa83e9446055cae4adfad67c608ca772925cc398c",
        "5d805793b7b762712a1534949b9f4d8f3f3477f2db23fd04a2279f0295227c63",
    ),
    (
        "21ff799c3247d55bffab4b7cd48492b5c92037b893c511718fff8720d118cdc0",
        "f4983090663109998f8075db0d17222ee7ea1779878080a0e1e2f757ab054f1c",
    ),
    (
        "3b0bd6034fdf04341616ab64be6a75d52d09f4ead8b4ba6edbe7dc691a5c3940",
        "6ba6de1a18957fecbedd79fcf3360de4637dfd872a0f1efa1243a13f430573ea",
    ),
    (
        "82215141581c275cf0c2ae64614b2573c48af7a30f1297a7dfc48a4feedcd74c",
        "8cb0e9b8a4c10e5a9f6387fa21f9fdcd3a0e76de7dbe7aa8120f76e03279a5de",
    ),
    (
        "bc289f4467e4cea68476ece76ff5ecfc347b916990f02b04cd4ab333a68e213f",
        "e122ed8b586580231bafd7ac18add744bff52558b26845bb809e5e03828a08f2",
    ),
    (
        "2f07806ca26f905a7ef8ca87d0960725c05a953f7cf18e56784848eec89075c2",
        "f3295d4335d3fdc8eef77e01084b1f812c6f8b492eb48ff048b5935ebdf27993",
    ),
    (
        "198ca0a38775719db401b30c8b87ad824468df3ae56ee1f9a5121ace1d9e847b",
        "e2938b0318b2dc571ae86d8de2b39a740607ffc114d674d67991c1ae717dc5d8",
    ),
    (
        "54ae97c7b757ca3a6b95c05cc7387186b2a0057f05c38a0e34b17987c036e548",
        "f29120adce4d0f254eb7c325e2a5af532c7d56188a1ff1193b77ad5d379731d0",
    ),
    (
        "fff6f5b992c2aa747d3095a2216b31626cb3a44337e1268c77bafcfc2a547b4c",
        "c3adaaf1854db32ffaedd03cce3d949f6647a6c3d135c176eca6beb8d2dbc4a8",
    ),
    (
        "55fa4131a504721f380ae56d92939dd164568463ab61d4d837fd5e0cfbdd9b62",
        "d2b31fd4c286e2155e395d7fdda11cd9f3c2935f9d7587ff086556c3a8225cb5",
    ),
    (
        "90cb44f395d044c711beaf853173473ebae4fcb43413cf53956a5223d91640a2",
        "d45f7414949fafdcf52db862eccb867a5634f7b699689bd425fa5af13ea41594",
    ),
    (
        "be4b43d98f27c5ea059d3dfe1af1e1ccb3ccd53513425da368038ed4b79c5753",
        "958d3fd1dd5b2d56f8beae29ed2cc9b722451c77808540cba02095dccae1234b",
    ),
    (
        "d32da208abf3cdaf175dff285590323ac95a27bebaccbf1ffb384e2c4761a219",
        "eeb4a34a57e61ca009253c761ef93ac5ec4eef4952431995ba8f685056975a6b",
    ),
    (
        "8e91a493379d341d8c0dd8afcee206a2606ae53de42d7c6959dbe91b54538e49",
        "837159b72164fa3ddff742d0347d9d5f9c472ee13dd9ccf46e4502de8e6bf2b1",
    ),
    (
        "4ab3dd2af2723d870bc45b4da0d5655c18c589ea6c2b275d5d7db1db8ea60a1d",
        "454ad7ec607408574f409c13d2295a3299cfe9620c08c9f2858e502c187b14d1",
    ),
    (
        "ea20f6d122b5e20445b2822ad5c76cf2e9364c203da9ea50b8af1b56577c6722",
        "02153f8e9d61f757eca21d5b5b66fe3e346f3593b51dd2e86ea31a71d4e99870",
    ),
];
const LOCAL_EPOCH: u64 = 23;
const LOCAL_FLEET_ROOT: &str = "f4b6be0f46dc3fec012f94f9ee33bc1781291dfd089e83622c93e203442f1c3f";

/// `(shard root, proof MAC)` per shard of the raw gateway sweep.
const WIRE_SHARDS: [(&str, &str); SHARD_COUNT] = [
    (
        "452e1845a66426349f421f00b46e7b1eba5cadf817d105f7be86a9356249ee99",
        "732c98a7c40df7e43b730194429c6b2040fd4ba6eeb286337b6614fa90c3021b",
    ),
    (
        "291ecd1e30e7937d55d4e330ce319833b7652270e96e2b3adc8dad4df88224d0",
        "7a2cf35b6783d9dbaaa48b67ed531671929cd59bce66326fff0ab5b67bcbc312",
    ),
    (
        "c4b7d4e06ea43498364e32c008fc9b1989f33abd23423a58097a95fdbb47cf97",
        "8b6246be97eab133ee9f22e3c1a0df29bd68b2b222bcca8722cea65e4e33fb38",
    ),
    (
        "e2889cbea35242d05ca98c975416200f3525bcf7e379f96d36b31ab2dff66ca5",
        "7843a0b5a665e7716a22c1d3290a16d9ba53b04087badf6073e8cfe340177624",
    ),
    (
        "fa8ea3541c7c3c926da9020ebd7ab05611d9d664e9f5b18320341f70f0012774",
        "55df16edc81a215b12bfb757ca74175b5211b7fa87a7483299c28076e6361888",
    ),
    (
        "a905bc5047ec73b231eb038c05c1961e721e7edd9b3db0379e5df90a3273bec7",
        "fcbaa9b32bdd35ae30a9ea5dc7fe76027adacfbafa2e2c4cc1b07b62e088aa2d",
    ),
    (
        "4f01379680cc3bc9478c7dd71beaa4cf500aca3a9cbd40c4790ed7f3fa63ffb2",
        "94874784afb5d4e9cfec523186bab0a2b7ddb6227f6e10e309f89a8967c89d68",
    ),
    (
        "36648aa00b6346725a55464407c8eadddb4f8ccb8feffe0a3d8127c7c465dd6d",
        "680ba9833c65a5eec01cd452f2a6666e8e48b2e289033156ae2d12d36c3e6435",
    ),
    (
        "dce7e6a39bbf882674241f5681ad4b1bdec77f787703ac95293030928351174f",
        "990aade013f7d9b589542e9bea4c3ab89454ae28f92f1512f38f01d3c2bc3a82",
    ),
    (
        "50297c649f05524e772be614d40c74aab70c453048d0042583ac1706615c2c25",
        "5417a6d787397671339a1eb74053576158d674b6cf3cfd5bc2a2db463bce4176",
    ),
    (
        "69099aa40c1f663b1ad938cffbb392a8c1cfc11d7cc0206aa56deb59c51bb49a",
        "254b1bf26af9b6c826e5332f057e28903f91d7eba7844b3ec033e2d1c2953cc0",
    ),
    (
        "e22dd0c6d783ab1315c60fd5c559798186ef23e0d63f8e9ae8ea5d2a7869a60d",
        "100f279400c7af038986c9bbdc2011126c5b72c73abae71bc503b4748d3cd01b",
    ),
    (
        "740418a3156dda69bb79dbd1100f50bf44737afdae193676a1b6b878c7a2b5e4",
        "638ad9bfb5b4498fe8d207b2bfc64b2465357a0cb81e822e4bbaef4bf7fbd1f0",
    ),
    (
        "1f4186bd5538bcd61b835611d460397958fb696ab4c485164f819629536be2d1",
        "2407ab1237ab0b8049d30b866567cf8e60fea57c66542f438a0f63d94543bc69",
    ),
    (
        "d319b2114d0981ba5bdd77086a7aaae791a63989adfa1b24cffd3911f1b85655",
        "6e4883c5a4951ea347d0b6a6220c3ba200af75fa16e9422c746b0213304717b2",
    ),
    (
        "ef2da3a1b717e3973124be8c846b30f1715f3851667a63c9259a31808982f20e",
        "c718a72ac41d47f843736767f63fad618703ca9fbc729299dff6756b33d85e19",
    ),
];
const WIRE_EPOCH: u64 = 63;
const WIRE_FLEET_ROOT: &str = "a81b7501d8ba918646ad5ef6e9fb0d458d4aefab01af5b3c1a74dfcdf62d6a35";
const WIRE_BITMAP: &str = "ffffffffff";

/// Shard roots and fleet root of the `RemoteOps` sweep that follows.
const REMOTE_ROOTS: [&str; SHARD_COUNT] = [
    "334a8e6628363c247c3dbcdf9a0d1913f9d6aea510a79a8a3cc638da7b069b52",
    "d99ce1f83e827a1a13f942a5b6cd58f720383167fd5874b0869807a9d90c9079",
    "c59bf14c1931d3ba353fec3708f98dc86e0283fc25c7617e91dd2becf9d7e2f2",
    "556611a7ddc31f35cc13748e6127abddbe742b0249c7381b9ad2cc629670b206",
    "439faff453964376a9d19b1a6a5fc13ded8a5c6a4b65be90ba4b801e55123227",
    "ea3b7c1ba4803626ea285afef71c7917fa041be7104377ef63ec9dabbb801f46",
    "b06784e06357e19de257f35ac6e7413f0e02e923a73c95b1912b1592916c9ae8",
    "d340e364e6a4d27f586aa8f3d3289847159a86674802c94a52babe7864c122a1",
    "a1c4741c596e84554539b08fab5ccd114f0911b13f733eb94e4e073c895ef8ad",
    "a9645bf83f0142d1863e27a57ee937c6c4bd2bb561fef023e0a710932631a675",
    "c224227c5e136daa43c76af8b5f8447901de60e6b29bc63c5cc2015aca76767c",
    "fdbf8ad755f78844e0e6f6b5d9bcee5746b153f76441d19b327417578f42a9aa",
    "ee505016fd852e50025dcef5918a9be57bcf9e0bbb7fd0d97046bf9f68b32761",
    "3a455998f8bd72988253d6141e77f42304e06afaca0919b64a6806216cf72201",
    "324a9920cb850751d548bb288246dbbbe96a6f6b90f1fbc820f18e706bd93cdd",
    "e6eb67e553eca389615eb063715824360403c8e71956d2be34afa97b9894c383",
];
const REMOTE_EPOCH: u64 = 65;
const REMOTE_FLEET_ROOT: &str = "ecbc1efd3e5cfb74cd816d64d330584d4321abefe878969986bbb3fed3910f24";

fn assert_summary(agg: &AggSweepSummary, epoch: u64, roots: &[&str], root: &str) {
    assert_eq!(agg.epoch, epoch);
    assert_eq!(agg.summary.devices, DEVICES);
    assert_eq!(agg.summary.counts, [DEVICES - 2, 1, 1, 0]);
    assert_eq!(agg.summary.flagged, flagged());
    assert_eq!(
        (agg.shards, agg.roots_verified, agg.short_circuited),
        (SHARD_COUNT, SHARD_COUNT, DEVICES - 2 * 3)
    );
    let shard_roots: Vec<(u16, String)> = agg
        .shard_roots
        .iter()
        .map(|(shard, digest)| (*shard, hex(digest)))
        .collect();
    let expected: Vec<(u16, String)> = roots
        .iter()
        .enumerate()
        .map(|(shard, digest)| (shard as u16, digest.to_string()))
        .collect();
    assert_eq!(shard_roots, expected);
    assert_eq!(hex(&agg.fleet_root), root);
}

#[test]
fn both_sweeps_reproduce_their_golden_bytes() {
    let (mut fleet, mut verifier) = prepare();

    // In-process: the summary carries the roots; the proof MACs it
    // checked are re-signed here from the shard sizes.
    let local = verifier.sweep_aggregated(&mut fleet);
    let roots: Vec<&str> = LOCAL_SHARDS.iter().map(|(root, _)| *root).collect();
    assert_summary(&local, LOCAL_EPOCH, &roots, LOCAL_FLEET_ROOT);
    for ((shard, root), (count, (_, mac))) in local
        .shard_roots
        .iter()
        .zip(shard_sizes().into_iter().zip(LOCAL_SHARDS))
    {
        let key = shard_agg_key(ROOT, *shard);
        let proof = AggProof::sign(&key, *shard, local.epoch, count, *root);
        assert_eq!(hex(&proof.mac), mac, "shard {shard}");
    }

    let service = Arc::new(AttestationService::new(verifier.service_snapshot(1 << 32)));
    let handle = Gateway::bind(("127.0.0.1", 0), service, GatewayConfig::default())
        .unwrap()
        .spawn();
    let addr = handle.addr();
    let (wire, remote) = with_attached_fleet(&mut fleet, 2, addr, || {
        let mut console =
            TcpTransport::connect(addr).map_err(|e| OpsError::Backend(e.to_string()))?;
        console
            .send(&Frame::Hello {
                min_version: PROTOCOL_VERSION,
                max_version: PROTOCOL_VERSION,
            })
            .and_then(|()| console.recv())
            .and_then(|_| console.send(&Frame::OpAggSweep))
            .map_err(|e| OpsError::Backend(e.to_string()))?;
        let wire = console
            .recv()
            .map_err(|e| OpsError::Backend(e.to_string()))?;
        let mut ops = RemoteOps::connect(addr).map_err(|e| OpsError::Backend(e.to_string()))?;
        ops.set_agg_root_key(ROOT);
        Ok::<_, OpsError>((wire, ops.sweep_aggregated()?))
    })
    .expect("device agents served cleanly")
    .expect("both gateway sweeps succeed");
    handle.shutdown().unwrap();

    let Frame::OpAggSweepResult {
        epoch,
        devices,
        counts,
        bitmap_base,
        bitmap,
        proofs,
        suspects,
    } = wire
    else {
        panic!("expected OpAggSweepResult, got {wire:?}");
    };
    assert_eq!(epoch, WIRE_EPOCH);
    assert_eq!(
        (devices, counts, bitmap_base, hex(&bitmap)),
        (
            DEVICES as u32,
            [DEVICES as u32 - 2, 1, 1, 0],
            0,
            WIRE_BITMAP.to_string()
        )
    );
    assert_eq!(
        suspects,
        [(STALE, WireHealth::Stale), (TAMPERED, WireHealth::Tampered)]
    );
    let pinned: Vec<(u16, u64, u32, String, String)> = proofs
        .iter()
        .map(|proof| {
            (
                proof.shard,
                proof.epoch,
                proof.count,
                hex(&proof.root),
                hex(&proof.mac),
            )
        })
        .collect();
    let expected: Vec<(u16, u64, u32, String, String)> = WIRE_SHARDS
        .iter()
        .zip(shard_sizes())
        .enumerate()
        .map(|(shard, ((root, mac), count))| {
            (
                shard as u16,
                WIRE_EPOCH,
                count,
                root.to_string(),
                mac.to_string(),
            )
        })
        .collect();
    assert_eq!(pinned, expected);
    let wire_roots: Vec<(u16, [u8; 32])> = proofs
        .iter()
        .map(|proof| (proof.shard, proof.root))
        .collect();
    assert_eq!(hex(&fleet_root(&wire_roots)), WIRE_FLEET_ROOT);

    assert_summary(&remote, REMOTE_EPOCH, &REMOTE_ROOTS, REMOTE_FLEET_ROOT);
}
